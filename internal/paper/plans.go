// Package paper is the one home of the paper's evaluation (§6): the
// synthetic database and benchmark query Q (Build, DB.Query), the four
// hand-built execution plans of Figure 11 plus the optimizer's own choice
// (BuildPlan), one executor that runs a plan under λ_k and reports its
// execution counters (Run), and the cardinality-estimation comparison of
// Figure 13 (Figure13). TestQMatchesAlgebraOracle checks every plan's
// ranked output against internal/algebra's evaluation of Q.
//
// The Figure 12(a)–(d) sweeps and Figure 13 are this package's
// benchmarks; regenerate them with
//
//	go test -run '^$' -bench Fig ./internal/paper
//
// They run at CI scale (benchSize rows per table); paper scale
// (s = 100 000) means raising that constant.
//
// benchmark/embed.go still carries a second generator of the §6 database
// (genJoinData, with its own code and RNG) until embed_join switches to
// Build (ROADMAP.md item 11(a)).
package paper

import (
	"fmt"

	"ranksql/internal/expr"
	"ranksql/internal/optimizer"
)

// PlanID identifies a benchmark plan.
type PlanID int

// The four Figure 11 plans plus the optimizer's choice.
const (
	Plan1   PlanID = iota + 1 // traditional materialize-then-sort
	Plan2                     // rank-scans + µ + HRJN everywhere
	Plan3                     // plan2 with seqScan(B) + µ_f3
	Plan4                     // µ chain over a sort-merge join, HRJN with C
	PlanOpt                   // whatever the optimizer picks
)

// String names the plan as in the paper.
func (p PlanID) String() string {
	switch p {
	case Plan1:
		return "plan1"
	case Plan2:
		return "plan2"
	case Plan3:
		return "plan3"
	case Plan4:
		return "plan4"
	case PlanOpt:
		return "planOpt"
	default:
		return fmt.Sprintf("plan?%d", int(p))
	}
}

// AllPlans lists the four fixed plans.
var AllPlans = []PlanID{Plan1, Plan2, Plan3, Plan4}

// node builders, for readability.
func filter(cond expr.Expr, child *optimizer.PlanNode) *optimizer.PlanNode {
	return &optimizer.PlanNode{Kind: optimizer.KindFilter, Cond: cond,
		Children: []*optimizer.PlanNode{child}}
}

func col(t, c string) *expr.Col { return expr.NewCol(t, c) }

// BuildPlan constructs one of the Figure 11 plans (without the top LIMIT;
// Run adds λ_k so one structure serves every k).
func BuildPlan(db *DB, id PlanID) (*optimizer.PlanNode, error) {
	aB := col("A", "b")
	bB := col("B", "b")

	switch id {
	case Plan1:
		// sort_F( SMJ_{B.jc2=C.jc2}( sort_{B.jc2}( SMJ_{A.jc1=B.jc1}(
		//   filter_A.b(idxScan_jc1(A)), filter_B.b(idxScan_jc1(B)))),
		//   idxScan_jc2(C)) )
		scanA := &optimizer.PlanNode{Kind: optimizer.KindIdxScanCol, Alias: "A",
			SortTable: "A", SortCol: "jc1"}
		scanB := &optimizer.PlanNode{Kind: optimizer.KindIdxScanCol, Alias: "B",
			SortTable: "B", SortCol: "jc1"}
		smjAB := &optimizer.PlanNode{Kind: optimizer.KindMergeJoin,
			LeftKey: col("A", "jc1"), RightKey: col("B", "jc1"),
			Children: []*optimizer.PlanNode{filter(aB, scanA), filter(bB, scanB)}}
		sortB2 := &optimizer.PlanNode{Kind: optimizer.KindSortColumn,
			SortTable: "B", SortCol: "jc2",
			Children: []*optimizer.PlanNode{smjAB}}
		scanC := &optimizer.PlanNode{Kind: optimizer.KindIdxScanCol, Alias: "C",
			SortTable: "C", SortCol: "jc2"}
		smjBC := &optimizer.PlanNode{Kind: optimizer.KindMergeJoin,
			LeftKey: col("B", "jc2"), RightKey: col("C", "jc2"),
			Children: []*optimizer.PlanNode{sortB2, scanC}}
		return &optimizer.PlanNode{Kind: optimizer.KindSortScore,
			Children: []*optimizer.PlanNode{smjBC}}, nil

	case Plan2, Plan3:
		// HRJN_{B.jc2=C.jc2}( HRJN_{A.jc1=B.jc1}(A side, B side),
		//   idxScan_f5(C) )
		aSide := &optimizer.PlanNode{Kind: optimizer.KindRank, Pred: db.Preds[1], // f2
			Children: []*optimizer.PlanNode{
				filter(aB, &optimizer.PlanNode{Kind: optimizer.KindRankScan,
					Alias: "A", Pred: db.Preds[0]}), // idxScan_f1(A)
			}}
		var bSide *optimizer.PlanNode
		if id == Plan2 {
			bSide = &optimizer.PlanNode{Kind: optimizer.KindRank, Pred: db.Preds[3], // f4
				Children: []*optimizer.PlanNode{
					filter(bB, &optimizer.PlanNode{Kind: optimizer.KindRankScan,
						Alias: "B", Pred: db.Preds[2]}), // idxScan_f3(B)
				}}
		} else {
			// plan3: sequential scan instead of the rank-scan.
			bSide = &optimizer.PlanNode{Kind: optimizer.KindRank, Pred: db.Preds[3], // f4
				Children: []*optimizer.PlanNode{
					filter(bB, &optimizer.PlanNode{Kind: optimizer.KindRank,
						Pred: db.Preds[2], // µ_f3
						Children: []*optimizer.PlanNode{
							{Kind: optimizer.KindSeqScan, Alias: "B"},
						}}),
				}}
		}
		hrjnAB := &optimizer.PlanNode{Kind: optimizer.KindHRJN,
			LeftKey: col("A", "jc1"), RightKey: col("B", "jc1"),
			Children: []*optimizer.PlanNode{aSide, bSide}}
		scanC := &optimizer.PlanNode{Kind: optimizer.KindRankScan, Alias: "C",
			Pred: db.Preds[4]} // idxScan_f5(C)
		return &optimizer.PlanNode{Kind: optimizer.KindHRJN,
			LeftKey: col("B", "jc2"), RightKey: col("C", "jc2"),
			Children: []*optimizer.PlanNode{hrjnAB, scanC}}, nil

	case Plan4:
		// HRJN_{B.jc2=C.jc2}( µf4 µf3 µf2 µf1 ( SMJ_{A.jc1=B.jc1}(
		//   filter_A.b(idxScan_jc1(A)), filter_B.b(idxScan_jc1(B)))),
		//   idxScan_f5(C) )
		scanA := &optimizer.PlanNode{Kind: optimizer.KindIdxScanCol, Alias: "A",
			SortTable: "A", SortCol: "jc1"}
		scanB := &optimizer.PlanNode{Kind: optimizer.KindIdxScanCol, Alias: "B",
			SortTable: "B", SortCol: "jc1"}
		smjAB := &optimizer.PlanNode{Kind: optimizer.KindMergeJoin,
			LeftKey: col("A", "jc1"), RightKey: col("B", "jc1"),
			Children: []*optimizer.PlanNode{filter(aB, scanA), filter(bB, scanB)}}
		mus := smjAB
		for _, pi := range []int{0, 1, 2, 3} { // f1, f2, f3, f4
			mus = &optimizer.PlanNode{Kind: optimizer.KindRank, Pred: db.Preds[pi],
				Children: []*optimizer.PlanNode{mus}}
		}
		scanC := &optimizer.PlanNode{Kind: optimizer.KindRankScan, Alias: "C",
			Pred: db.Preds[4]} // idxScan_f5(C)
		return &optimizer.PlanNode{Kind: optimizer.KindHRJN,
			LeftKey: col("B", "jc2"), RightKey: col("C", "jc2"),
			Children: []*optimizer.PlanNode{mus, scanC}}, nil

	case PlanOpt:
		return BuildOptimizedPlan(db, optimizer.DefaultOptions())

	default:
		return nil, fmt.Errorf("paper: unknown plan %d", id)
	}
}

// BuildOptimizedPlan runs the rank-aware optimizer on the benchmark query
// with explicit options. At the default 0.1 % samples the per-table
// samples of A, B and C rarely join; the estimator takes x' from their
// cross product and floors empty sample joins (see optimizer.Estimator),
// so the choice still tracks k.
func BuildOptimizedPlan(db *DB, opts optimizer.Options) (*optimizer.PlanNode, error) {
	res, err := optimizer.Optimize(db.Query(), opts)
	if err != nil {
		return nil, err
	}
	// Strip the optimizer's own LIMIT; Run adds λ_k.
	p := res.Plan
	if p.Kind == optimizer.KindLimit {
		p = p.Children[0]
	}
	return p, nil
}
