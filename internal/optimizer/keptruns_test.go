package optimizer_test

import (
	"fmt"
	"testing"

	"ranksql/internal/optimizer"
	"ranksql/internal/paper"
)

// TestKeptRunsQ runs optimizer.CheckKeptRuns on the paper's query Q at the
// embed_join scale (s = 10 000), where the independent samples rarely
// join (j = 0.001) and where they do (j = 0.02).
func TestKeptRunsQ(t *testing.T) {
	for _, j := range []float64{0.001, 0.02} {
		cfg := paper.DefaultConfig()
		cfg.Size = 10000
		cfg.JoinSelectivity = j
		db, err := paper.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, heur := range []bool{true, false} {
			for _, k := range []int{1, 10, 100} {
				q := db.Query()
				q.K = k
				opts := optimizer.DefaultOptions()
				opts.RankHeuristic, opts.LeftDeepOnly = heur, heur
				t.Run(fmt.Sprintf("j=%g/heur=%v/k=%d", j, heur, k), func(t *testing.T) {
					optimizer.CheckKeptRuns(t, q, opts)
				})
			}
		}
	}
}
