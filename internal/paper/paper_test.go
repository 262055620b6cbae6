package paper

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ranksql/internal/algebra"
	"ranksql/internal/catalog"
	"ranksql/internal/optimizer"
	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// smallConfig keeps tests fast: 4,000 rows, j=1/500.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Size = 4000
	cfg.JoinSelectivity = 0.002
	cfg.K = 10
	cfg.Seed = 7
	return cfg
}

// mustRun builds one of the plans and executes it under λ_k, failing the test
// on any error.
func mustRun(t *testing.T, db *DB, id PlanID, k int) *Measurement {
	t.Helper()
	plan, err := BuildPlan(db, id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	m, err := Run(db, plan, k)
	if err != nil {
		t.Fatalf("%s k=%d: %v", id, k, err)
	}
	return m
}

// idBits is the width of one table's row id inside an algebra tuple ID.
// Row tid of the i-th table (A, B, C) gets ID tid<<(i·idBits), and a
// join's ID is the sum of its inputs' IDs, so it packs one row id per
// table and the selections and join conditions read each row back from it.
const idBits = 20

// algebraQ evaluates Q = µf5 … µf1((σ_A.b(A) ⨝_jc1 σ_B.b(B)) ⨝_jc2 C) by
// the definitions of internal/algebra, fully materialized, and returns the
// score of every result, best first.
func algebraQ(t *testing.T, db *DB) []float64 {
	t.Helper()
	tables := []string{"A", "B", "C"}
	tms := make([]*catalog.TableMeta, len(tables))
	leaves := make([]*algebra.Base, len(tables))
	for i, name := range tables {
		tm, err := db.Catalog.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tms[i] = tm
		rel := &algebra.Relation{}
		tm.Table.Scan(func(tid schema.TID, row []types.Value) bool {
			scores := make([]float64, db.Spec.N())
			for _, p := range db.Preds {
				if a := p.Args[0]; a.Table == name {
					scores[p.Index] = row[tm.Table.Schema.ColumnIndex("", a.Column)].Float()
				}
			}
			rel.Tuples = append(rel.Tuples, algebra.Tuple{
				ID: tid << (i * idBits), Key: fmt.Sprint(name, tid), Scores: scores})
			return true
		})
		leaves[i] = &algebra.Base{Name: name, Rel: rel}
	}
	// field reads one column of the i-th table's row packed in an ID.
	field := func(i int, col string) func(id schema.TID) types.Value {
		ci := tms[i].Table.Schema.ColumnIndex("", col)
		return func(id schema.TID) types.Value {
			return tms[i].Table.Row(id >> (i * idBits) & (1<<idBits - 1))[ci]
		}
	}
	aB, aJC1 := field(0, "b"), field(0, "jc1")
	bB, bJC1, bJC2 := field(1, "b"), field(1, "jc1"), field(1, "jc2")
	cJC2 := field(2, "jc2")
	// predsOn is the set of predicates evaluable on table name alone.
	predsOn := func(name string) schema.Bitset {
		var b schema.Bitset
		for i, p := range db.Spec.Preds {
			if !slices.ContainsFunc(p.Tables(), func(t string) bool { return t != name }) {
				b = b.With(i)
			}
		}
		return b
	}

	var q algebra.Expr = &algebra.Join{
		Name:       "jc2",
		RightPreds: predsOn("C"),
		Cond:       func(l, r algebra.Tuple) bool { return bJC2(l.ID).Int() == cJC2(r.ID).Int() },
		L: &algebra.Join{
			Name:       "jc1",
			RightPreds: predsOn("B"),
			Cond:       func(l, r algebra.Tuple) bool { return aJC1(l.ID).Int() == bJC1(r.ID).Int() },
			L:          &algebra.Select{Name: "A.b", Cond: func(x algebra.Tuple) bool { return aB(x.ID).Bool() }, E: leaves[0]},
			R:          &algebra.Select{Name: "B.b", Cond: func(x algebra.Tuple) bool { return bB(x.ID).Bool() }, E: leaves[1]},
		},
		R: leaves[2],
	}
	for p := 0; p < db.Spec.N(); p++ {
		q = &algebra.Mu{P: p, E: q}
	}
	rel, err := q.Eval(db.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var scores []float64
	for _, tu := range rel.Sorted(db.Spec) {
		scores = append(scores, db.Spec.UpperBound(tu.Scores, rel.P))
	}
	return scores
}

// TestQMatchesAlgebraOracle checks every plan against the logical algebra
// of §3: plan1–4 and the optimizer's plan must return exactly k rows
// carrying the oracle's score sequence position by position. Rows tied on
// score may come in any order, but the score at every rank is fixed (the
// ranked-enumeration contract of Tziavelis et al.).
func TestQMatchesAlgebraOracle(t *testing.T) {
	cfg := smallConfig()
	cfg.Size = 1500
	cfg.JoinSelectivity = 0.005
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := algebraQ(t, db)
	if len(want) < 100 {
		t.Fatalf("oracle found %d results, want at least 100", len(want))
	}
	for _, id := range append(AllPlans, PlanOpt) {
		for _, k := range []int{1, 10, 100} {
			got := mustRun(t, db, id, k).Scores
			if len(got) != k {
				t.Errorf("%s k=%d: %d rows", id, k, len(got))
				continue
			}
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Errorf("%s k=%d: rank %d scores %.12f, oracle %.12f", id, k, i+1, got[i], want[i])
					break
				}
			}
		}
	}
}

// TestRankPlansReadLess checks the Example 4 claim at workload scale: the
// rank-aware plan2 evaluates far fewer predicates and scans fewer tuples
// than the traditional plan1 for small k.
func TestRankPlansReadLess(t *testing.T) {
	db, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m1 := mustRun(t, db, Plan1, 10)
	m2 := mustRun(t, db, Plan2, 10)
	if m2.Stats.PredEvals >= m1.Stats.PredEvals {
		t.Errorf("plan2 predicate evals %d not below plan1's %d",
			m2.Stats.PredEvals, m1.Stats.PredEvals)
	}
	if m2.Stats.TuplesScanned >= m1.Stats.TuplesScanned {
		t.Errorf("plan2 scanned %d tuples, not below plan1's %d",
			m2.Stats.TuplesScanned, m1.Stats.TuplesScanned)
	}
}

// TestIncrementalVsBlocking verifies the Figure 12(a) discussion: rank
// plans are incremental (cost grows with k), the traditional plan is
// blocking (cost independent of k). We assert via predicate evaluations,
// which are deterministic.
func TestIncrementalVsBlocking(t *testing.T) {
	db, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}

	p1k1 := mustRun(t, db, Plan1, 1)
	p1k100 := mustRun(t, db, Plan1, 100)
	if p1k1.Stats.PredEvals != p1k100.Stats.PredEvals {
		t.Errorf("plan1 is blocking; pred evals should not depend on k: %d vs %d",
			p1k1.Stats.PredEvals, p1k100.Stats.PredEvals)
	}

	p2k1 := mustRun(t, db, Plan2, 1)
	p2k100 := mustRun(t, db, Plan2, 100)
	if p2k100.Stats.PredEvals <= p2k1.Stats.PredEvals {
		t.Errorf("plan2 is incremental; pred evals should grow with k: %d vs %d",
			p2k1.Stats.PredEvals, p2k100.Stats.PredEvals)
	}
	if p2k1.Stats.PredEvals >= p1k1.Stats.PredEvals {
		t.Errorf("plan2 at k=1 should evaluate fewer predicates than plan1: %d vs %d",
			p2k1.Stats.PredEvals, p1k1.Stats.PredEvals)
	}
}

// TestFigure13Harness runs the cardinality-estimation experiment on a
// small database and sanity-checks the output structure (7 operators for
// plan3, 8 for plan4, as in the paper).
func TestFigure13Harness(t *testing.T) {
	db, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f3, err := Figure13(db, Plan3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3) != 7 {
		t.Errorf("plan3 has %d estimated operators, want 7", len(f3))
	}
	f4, err := Figure13(db, Plan4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4) != 8 {
		t.Errorf("plan4 has %d estimated operators, want 8", len(f4))
	}
	for _, o := range f3 {
		if o.Estimated < 0 {
			t.Errorf("negative estimate for %s", o.Name)
		}
	}
}

// TestFigure13Pinned pins every Figure 13 pair on the small database:
// the estimator keeps each subplan's sample run and executes only the
// new operator per plan, which must leave every estimate exactly what a
// from-scratch execution of the whole subplan gives.
func TestFigure13Pinned(t *testing.T) {
	db, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[PlanID][]OpCard{
		Plan1: {{"mergeJoin", 41518, 128000}, {"sort_jc2/asc", 5219, 4800}, {"mergeJoin", 5219, 4800},
			{"idxScan_jc1(A)", 4000, 4000}, {"idxScan_jc1(B)", 4000, 4000}, {"idxScan_jc2(C)", 4000, 4000}},
		Plan2: {{"HRJN", 17, 147.52205874125875}, {"rank_f2(A.p2)", 119, 325.0285714285714},
			{"idxScan_f1(A.p1)(A)", 1677, 3160}, {"rank_f4(B.p2)", 207, 226.93706293706293},
			{"idxScan_f3(B.p1)(B)", 1956, 2440}, {"idxScan_f5(C.p1)(C)", 849, 3320}},
		Plan3: {{"HRJN", 17, 147.52205874125875}, {"rank_f2(A.p2)", 119, 325.0285714285714},
			{"idxScan_f1(A.p1)(A)", 1677, 3160}, {"rank_f4(B.p2)", 207, 226.93706293706293},
			{"rank_f3(B.p1)", 1956, 2440}, {"seqScan(B)", 4000, 4000}, {"idxScan_f5(C.p1)(C)", 849, 3320}},
		Plan4: {{"rank_f4(B.p2)", 17, 11.111111111111112}, {"rank_f3(B.p1)", 114, 44.44444444444445},
			{"rank_f2(A.p2)", 476, 266.6666666666667}, {"rank_f1(A.p1)", 2346, 1600}, {"mergeJoin", 5219, 4800},
			{"idxScan_jc1(A)", 4000, 4000}, {"idxScan_jc1(B)", 4000, 4000}, {"idxScan_f5(C.p1)(C)", 849, 3320}},
		PlanOpt: {{"rank_f2(A.p2)", 17, 95.6161491841492}, {"HRJN", 146, 573.6968951048951},
			{"rank_f4(B.p2)", 232, 226.93706293706293}, {"idxScan_f3(B.p1)(B)", 1964, 2440},
			{"idxScan_f1(A.p1)(A)", 1677, 3160}, {"idxScan_f5(C.p1)(C)", 849, 3320}},
	}
	for _, id := range append(AllPlans, PlanOpt) {
		got, err := Figure13(db, id)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want[id]) {
			t.Errorf("%s: Figure 13 pairs\n%v\nwant\n%v", id, got, want[id])
		}
	}
}

// TestOptimizerChoiceIsCosted: on the default options, the optimizer's
// pick must carry a finite cost and never do more predicate work than the
// traditional plan, whose shape finalize always has available.
func TestOptimizerChoiceIsCosted(t *testing.T) {
	db, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildOptimizedPlan(db, optimizer.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost <= 0 || math.IsInf(plan.Cost, 0) {
		t.Errorf("chosen plan has degenerate cost %v", plan.Cost)
	}
	mOpt, err := Run(db, plan, 10)
	if err != nil {
		t.Fatal(err)
	}
	m1 := mustRun(t, db, Plan1, 10)
	if mOpt.Stats.PredEvals > m1.Stats.PredEvals {
		t.Errorf("optimizer plan does more work than the traditional plan: %d > %d",
			mOpt.Stats.PredEvals, m1.Stats.PredEvals)
	}
}

// TestOptimizerChoiceOnDefaults checks the optimizer's choice for Q on the
// default options at the embed_join scale (s = 10 000, j = 0.001), where
// independent 0.1 % samples (100-row floor) rarely join: at every k the
// chosen plan reads at most 1.2× the tuples of the best forced plan, x' is
// finite, the estimated cost grows with k, no node of the k = 10 plan is
// estimated at zero, and at least 80 % of its Figure 13 operators are
// estimated within an order of magnitude.
func TestOptimizerChoiceOnDefaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Size = 10000
	cfg.JoinSelectivity = 0.001
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prevCost := math.Inf(-1)
	for _, k := range []int{1, 10, 100} {
		q := db.Query()
		q.K = k
		res, err := optimizer.Optimize(q, optimizer.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if x := res.Estimator.XPrime; math.IsInf(x, 0) || math.IsNaN(x) {
			t.Errorf("k=%d: x' = %v", k, x)
		}
		if res.Plan.Cost <= prevCost {
			t.Errorf("k=%d: estimated cost %.1f does not exceed the previous k's %.1f", k, res.Plan.Cost, prevCost)
		}
		prevCost = res.Plan.Cost
		if k == 10 {
			var walk func(p *optimizer.PlanNode)
			walk = func(p *optimizer.PlanNode) {
				if p.Card <= 0 {
					t.Errorf("k=10: %s estimated at %v\n%s", p.Label(), p.Card, res.Plan)
				}
				for _, c := range p.Children {
					walk(c)
				}
			}
			walk(res.Plan)
		}

		best := int64(math.MaxInt64)
		for _, id := range AllPlans {
			best = min(best, mustRun(t, db, id, k).Stats.TuplesScanned)
		}
		m, err := Run(db, res.Plan.Children[0], k) // below the optimizer's λ_k
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Stats.TuplesScanned; float64(got) > 1.2*float64(best) {
			t.Errorf("k=%d: chosen plan scans %d tuples, best forced plan %d\n%s", k, got, best, res.Plan)
		}
	}

	ops, err := Figure13(db, PlanOpt)
	if err != nil {
		t.Fatal(err)
	}
	if f := AccurateFraction(ops); f < 0.8 {
		t.Errorf("Figure 13 pairs of the chosen plan: %.2f within an order of magnitude, want ≥ 0.8: %+v", f, ops)
	}
}

// TestChosenPlanQDepth caps the tuples Q's chosen plan scans at the
// embed_join scale (BenchmarkChosenPlanQ): its two rank joins draw from
// the side whose corner term of the threshold is larger (HRJN*), and scan
// 6 008 / 9 464 / 14 100 tuples at k = 1 / 10 / 100. Drawing from the side
// whose last bound is larger scanned 7 184 / 11 123 / 16 062.
func TestChosenPlanQDepth(t *testing.T) {
	db := getDB(t, qConfig())
	for _, c := range []struct {
		k   int
		max int64
	}{{1, 6100}, {10, 9600}, {100, 14300}} {
		q := db.Query()
		q.K = c.k
		res, err := optimizer.Optimize(q, optimizer.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		m, err := Run(db, res.Plan.Children[0], c.k) // below the optimizer's λ_k
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Stats.TuplesScanned; got > c.max {
			t.Errorf("k=%d: chosen plan scans %d tuples, cap %d\n%s", c.k, got, c.max, res.Plan)
		}
	}
}
