package paper

import (
	"testing"

	"ranksql/internal/optimizer"
	"ranksql/internal/raceflag"
)

// compileAllocBudget caps the allocations of one optimizer.Optimize of Q
// at benchSize (BenchmarkOptimizer's heuristics=true case): ~34 k when a
// nested loop is priced on its hash join twin's sample run, a µ candidate
// reuses its rank-metric probe and only µ and τ_F read copies of kept
// tuples; ~90 k when each of those ran or copied its own, ~781 k when
// every candidate re-ran its whole subtree.
const compileAllocBudget = 60000

func TestCompileAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, err := Build(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := optimizer.DefaultOptions()
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := optimizer.Optimize(db.Query(), opts); err != nil {
			t.Fatal(err)
		}
	}); allocs > compileAllocBudget {
		t.Errorf("Optimize(Q): %.0f allocs/op, budget %d", allocs, compileAllocBudget)
	}
}
