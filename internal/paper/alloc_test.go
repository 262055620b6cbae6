package paper

import (
	"testing"

	"ranksql/internal/optimizer"
	"ranksql/internal/raceflag"
)

// compileAllocBudget caps the allocations of one optimizer.Optimize of Q
// at benchSize (BenchmarkOptimizer's heuristics=true case): ~29 k when the
// Estimator's sample tuples come from an arena and each merge join input
// is sorted once; ~33 k with heap-allocated sample tuples, so the budget
// fails if the Estimator loses its arena; ~34 k when, besides, every merge
// join pair sorted its own input; ~90 k when a nested loop, a µ candidate
// and every reader of a kept run ran or copied its own, ~781 k when every
// candidate re-ran its whole subtree.
const compileAllocBudget = 31000

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

// runAllocBudget caps the allocations of one Run of the plan the
// optimizer picks for Q at s = 10 000, j = 0.001, k = 10
// (BenchmarkChosenPlanQ/k=10): ~6.5 k with Run's tuples from an arena,
// ~40 k when every scanned tuple cost three heap allocations.
const runAllocBudget = 8000

func TestRunAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := baseConfig()
	cfg.Size = 10000
	cfg.JoinSelectivity = 0.001
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := db.Query()
	q.K = 10
	res, err := optimizer.Optimize(q, optimizer.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan.Children[0] // below the optimizer's λ_k
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(db, plan, q.K); err != nil {
			t.Fatal(err)
		}
	}); allocs > runAllocBudget {
		t.Errorf("Run(Q's plan, k=10): %.0f allocs/op, budget %d", allocs, runAllocBudget)
	}
}
