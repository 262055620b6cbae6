package paper

// Benchmarks regenerating the paper's evaluation (§6) at CI scale: one
// benchmark per figure, with sub-benchmarks per swept parameter value and
// per plan. These are the only definition of each sweep:
//
//	go test -run '^$' -bench Fig ./internal/paper
//
// The benchmarked quantity is end-to-end plan execution (build operators,
// open, drain k results); reported alongside ns/op are predicate
// evaluations and tuples scanned per operation, the counters the paper's
// analysis uses.

import (
	"fmt"
	"sync"
	"testing"

	"ranksql/internal/optimizer"
)

// benchSize keeps CI runs quick while preserving the figures' shapes; the
// paper's default is 100 000.
const benchSize = 5000

// dbCache shares generated databases across benchmarks.
var (
	dbMu    sync.Mutex
	dbCache = map[Config]*DB{}
)

func getDB(b *testing.B, cfg Config) *DB {
	b.Helper()
	dbMu.Lock()
	defer dbMu.Unlock()
	if db, ok := dbCache[cfg]; ok {
		return db
	}
	db, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dbCache[cfg] = db
	return db
}

func baseConfig() Config {
	cfg := DefaultConfig()
	cfg.Size = benchSize
	cfg.JoinSelectivity = 0.002 // 500 distinct join values
	return cfg
}

// runPlan measures one (plan, k) cell.
func runPlan(b *testing.B, db *DB, id PlanID, k int) {
	b.Helper()
	var m *Measurement
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := BuildPlan(db, id)
		if err != nil {
			b.Fatal(err)
		}
		if m, err = Run(db, plan, k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Stats.PredEvals), "predEvals/op")
	b.ReportMetric(float64(m.Stats.TuplesScanned), "tuples/op")
}

// BenchmarkFig12a: execution vs k (plans 1-4).
func BenchmarkFig12a(b *testing.B) {
	db := getDB(b, baseConfig())
	for _, k := range []int{1, 10, 100, 1000} {
		for _, id := range AllPlans {
			b.Run(fmt.Sprintf("k=%d/%s", k, id), func(b *testing.B) {
				runPlan(b, db, id, k)
			})
		}
	}
}

// BenchmarkFig12b: execution vs predicate cost c. Cost is modeled: the
// counters scale with c, and the benchmark measures engine work.
func BenchmarkFig12b(b *testing.B) {
	for _, c := range []float64{0, 1, 10, 100} {
		cfg := baseConfig()
		cfg.PredCost = c
		db := getDB(b, cfg)
		for _, id := range AllPlans {
			b.Run(fmt.Sprintf("c=%g/%s", c, id), func(b *testing.B) {
				runPlan(b, db, id, cfg.K)
			})
		}
	}
}

// BenchmarkFig12c: execution vs join selectivity j.
func BenchmarkFig12c(b *testing.B) {
	for _, j := range []float64{0.0005, 0.002, 0.008} {
		cfg := baseConfig()
		cfg.JoinSelectivity = j
		db := getDB(b, cfg)
		for _, id := range AllPlans {
			b.Run(fmt.Sprintf("j=%g/%s", j, id), func(b *testing.B) {
				runPlan(b, db, id, cfg.K)
			})
		}
	}
}

// BenchmarkFig12d: execution vs table size s (plan1 omitted at the
// largest size, as in the paper).
func BenchmarkFig12d(b *testing.B) {
	for _, s := range []int{1000, 5000, 20000} {
		cfg := baseConfig()
		cfg.Size = s
		db := getDB(b, cfg)
		for _, id := range AllPlans {
			if id == Plan1 && s > 5000 {
				continue
			}
			b.Run(fmt.Sprintf("s=%d/%s", s, id), func(b *testing.B) {
				runPlan(b, db, id, cfg.K)
			})
		}
	}
}

// BenchmarkFig13 measures the sampling-based cardinality estimation pass
// over plan3 and plan4 (the optimization-time overhead of §5.2) and
// reports Figure 13's yardstick: the share of operators whose estimate is
// within one order of magnitude of the real cardinality.
func BenchmarkFig13(b *testing.B) {
	db := getDB(b, baseConfig())
	for _, id := range []PlanID{Plan3, Plan4} {
		b.Run(id.String(), func(b *testing.B) {
			var ops []OpCard
			for i := 0; i < b.N; i++ {
				var err error
				if ops, err = Figure13(db, id); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(AccurateFraction(ops), "same_magnitude_share")
		})
	}
}

// BenchmarkOptimizer measures full two-dimensional plan enumeration with
// sampling-based costing on the 3-table, 5-predicate benchmark query.
func BenchmarkOptimizer(b *testing.B) {
	for _, heur := range []bool{true, false} {
		b.Run(fmt.Sprintf("heuristics=%v", heur), func(b *testing.B) {
			db := getDB(b, baseConfig())
			opts := optimizer.DefaultOptions()
			opts.RankHeuristic = heur
			opts.LeftDeepOnly = heur
			var generated int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := optimizer.Optimize(db.Query(), opts)
				if err != nil {
					b.Fatal(err)
				}
				generated = res.Generated
			}
			b.ReportMetric(float64(generated), "plansGenerated/op")
		})
	}
}
