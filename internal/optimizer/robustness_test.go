package optimizer

import (
	"math"
	"strings"
	"testing"

	"ranksql/internal/catalog"
	"ranksql/internal/exec"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// chainFixture builds an n-table chain T0 -JC- T1 -JC- ... with one
// ranking predicate per table and a rank index on every even table.
func chainFixture(t *testing.T, tables, rows int) (*catalog.Catalog, *Query) {
	t.Helper()
	c := catalog.New()
	r := rng(1234)
	distinct := rows / 8
	if distinct < 2 {
		distinct = 2
	}
	ident := func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f }

	names := make([]string, tables)
	preds := make([]*rank.Predicate, tables)
	for i := 0; i < tables; i++ {
		names[i] = string(rune('T')) + string(rune('0'+i))
		sch := schema.NewSchema(
			schema.Column{Name: "lk", Kind: types.KindInt},
			schema.Column{Name: "rk", Kind: types.KindInt},
			schema.Column{Name: "p", Kind: types.KindFloat},
		)
		tm, err := c.CreateTable(names[i], sch)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < rows; j++ {
			tm.Table.MustAppend([]types.Value{
				types.NewInt(int64(r.intn(distinct))),
				types.NewInt(int64(r.intn(distinct))),
				types.NewFloat(r.float()),
			})
		}
		if i%2 == 0 {
			if _, err := tm.CreateRankIndex("f", []string{"p"}, ident); err != nil {
				t.Fatal(err)
			}
		}
		preds[i] = &rank.Predicate{
			Index:  i,
			Name:   "f(" + names[i] + ".p)",
			Scorer: "f",
			Args:   []rank.ColumnRef{{Table: names[i], Column: "p"}},
			Fn:     ident,
			Cost:   1,
		}
	}
	var conds []expr.Expr
	for i := 0; i+1 < tables; i++ {
		conds = append(conds, expr.Eq(expr.NewCol(names[i], "rk"), expr.NewCol(names[i+1], "lk")))
	}
	q := &Query{
		Catalog: c,
		Spec:    rank.MustSpec(rank.NewSum(tables), preds),
		Where:   expr.And(conds...),
		K:       5,
	}
	for _, n := range names {
		q.Tables = append(q.Tables, TableRef{Alias: n, Name: n})
	}
	return c, q
}

// TestFourTableChain optimizes and runs a 4-relation chain query. Sample
// sizes are reduced so the O(4-table × SP-subsets) estimation runs stay
// test-sized.
func TestFourTableChain(t *testing.T) {
	// Row count chosen so the quartic naive oracle stays test-sized.
	_, q := chainFixture(t, 4, 200)
	opts := DefaultOptions()
	opts.MinSampleRows = 25
	res, err := Optimize(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, q, res)
	want := naiveTopK(t, q)
	if !scoresEqual(got, want) {
		t.Errorf("4-table chain: optimized %v != naive %v\nplan:\n%s", got, want, res.Plan)
	}
}

// TestCartesianProduct: a query with no join condition between two tables
// must still plan (via a Cartesian nested loop).
func TestCartesianProduct(t *testing.T) {
	_, q := chainFixture(t, 2, 60)
	q.Where = nil // drop the join condition entirely
	res, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, q, res)
	want := naiveTopK(t, q)
	if !scoresEqual(got, want) {
		t.Errorf("cartesian: optimized %v != naive %v", got, want)
	}
	if !strings.Contains(res.Plan.String(), "nestLoop") {
		t.Errorf("cartesian product should use a nested loop:\n%s", res.Plan)
	}
}

// TestNoLimit: k=0 means a full ranking; all results, ranked.
func TestNoLimit(t *testing.T) {
	_, q := chainFixture(t, 2, 200)
	q.K = 0
	res, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Kind == KindLimit {
		t.Error("k=0 must not add a limit")
	}
	got := runPlan(t, q, res)
	want := naiveTopK(t, q) // naive with K=0 returns everything
	if !scoresEqual(got, want) {
		t.Errorf("full ranking: %d results vs naive %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i] > got[i-1]+1e-9 {
			t.Fatal("full ranking out of order")
		}
	}
}

// TestSingleTableManyPredicates: µ scheduling over one relation.
func TestSingleTableManyPredicates(t *testing.T) {
	c := catalog.New()
	r := rng(7)
	sch := schema.NewSchema(
		schema.Column{Name: "p1", Kind: types.KindFloat},
		schema.Column{Name: "p2", Kind: types.KindFloat},
		schema.Column{Name: "p3", Kind: types.KindFloat},
		schema.Column{Name: "p4", Kind: types.KindFloat},
	)
	tm, err := c.CreateTable("T", sch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		tm.Table.MustAppend([]types.Value{
			types.NewFloat(r.float()), types.NewFloat(r.float()),
			types.NewFloat(r.float()), types.NewFloat(r.float()),
		})
	}
	ident := func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f }
	if _, err := tm.CreateRankIndex("f", []string{"p1"}, ident); err != nil {
		t.Fatal(err)
	}
	preds := make([]*rank.Predicate, 4)
	costs := []float64{1, 2, 50, 5} // p3 is expensive; heuristic should defer it
	for i := range preds {
		col := sch.Columns[i].Name
		preds[i] = &rank.Predicate{
			Index: i, Name: "f(" + col + ")", Scorer: "f",
			Args: []rank.ColumnRef{{Table: "T", Column: col}},
			Fn:   ident, Cost: costs[i],
		}
	}
	q := &Query{
		Catalog: c,
		Tables:  []TableRef{{Alias: "T", Name: "T"}},
		Spec:    rank.MustSpec(rank.NewSum(4), preds),
		K:       10,
	}
	res, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, q, res)
	want := naiveTopK(t, q)
	if !scoresEqual(got, want) {
		t.Errorf("single-table 4-pred: %v != %v\nplan:\n%s", got, want, res.Plan)
	}
}

// TestWeightedSumPlan: a weighted scoring function flows through the
// optimizer and execution.
func TestWeightedSumPlan(t *testing.T) {
	_, q := chainFixture(t, 2, 300)
	weights := []float64{3, 0.5}
	q.Spec = rank.MustSpec(rank.NewWeightedSum(weights), q.Spec.Preds)
	res, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, q, res)
	want := naiveTopK(t, q)
	if !scoresEqual(got, want) {
		t.Errorf("weighted: %v != %v", got, want)
	}
}

// TestMinScoringFunction: a non-sum monotone F (fuzzy min) end to end.
func TestMinScoringFunction(t *testing.T) {
	_, q := chainFixture(t, 2, 300)
	q.Spec = rank.MustSpec(rank.NewMin(2), q.Spec.Preds)
	res, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, q, res)
	want := naiveTopK(t, q)
	if !scoresEqual(got, want) {
		t.Errorf("min-F: %v != %v", got, want)
	}
}

// TestProductScoringFunction: multiplicative F.
func TestProductScoringFunction(t *testing.T) {
	_, q := chainFixture(t, 2, 300)
	q.Spec = rank.MustSpec(rank.NewProduct(2), q.Spec.Preds)
	res, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, q, res)
	want := naiveTopK(t, q)
	if !scoresEqual(got, want) {
		t.Errorf("product-F: %v != %v", got, want)
	}
}

// TestDecomposeErrors: malformed queries fail cleanly.
func TestDecomposeErrors(t *testing.T) {
	c, q := figure9Fixture(t, 50)
	_ = c
	// Unknown table in a condition.
	q.Where = expr.Eq(expr.NewCol("ZZ", "a"), expr.NewCol("S", "a"))
	if _, err := decompose(q); err == nil {
		t.Error("unknown condition table accepted")
	}
	// Unknown table in a ranking predicate.
	_, q = figure9Fixture(t, 50)
	q.Spec.Preds[0].Args = []rank.ColumnRef{{Table: "nope", Column: "x"}}
	if _, err := decompose(q); err == nil {
		t.Error("unknown predicate table accepted")
	}
	// Duplicate aliases.
	_, q = figure9Fixture(t, 50)
	q.Tables = []TableRef{{Alias: "R", Name: "R"}, {Alias: "R", Name: "S"}}
	if _, err := decompose(q); err == nil {
		t.Error("duplicate alias accepted")
	}
	// No tables.
	q.Tables = nil
	if _, err := decompose(q); err == nil {
		t.Error("empty FROM accepted")
	}
}

// TestOptPlanCompetitive: on the benchmark workload shape, the chosen plan
// must not do more predicate work than the worst fixed plan — a coarse
// check that the cost model orders the space sensibly.
func TestOptPlanCompetitive(t *testing.T) {
	_, q := figure9Fixture(t, 3000)
	res, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.Plan.Cost, 0) || res.Plan.Cost < 0 {
		t.Errorf("degenerate plan cost %v", res.Plan.Cost)
	}
	if res.Generated < res.Kept || res.Kept == 0 {
		t.Errorf("implausible enumeration stats: generated=%d kept=%d", res.Generated, res.Kept)
	}
}

// TestXPrimeIsCrossProductTopK: x' is the k″-th best score over the cross
// product of the filtered per-table samples, for every shape of monotone F
// and with a ranking predicate over two tables evaluated on the combined
// tuple. The oracle materializes and sorts the whole cross product.
func TestXPrimeIsCrossProductTopK(t *testing.T) {
	closeness := func(args []types.Value) float64 {
		a, _ := args[0].AsFloat()
		b, _ := args[1].AsFloat()
		return 1 - math.Abs(a-b)
	}
	for name, f := range map[string]func(n int) rank.ScoringFunc{
		"sum":     func(n int) rank.ScoringFunc { return rank.NewSum(n) },
		"product": func(n int) rank.ScoringFunc { return rank.NewProduct(n) },
		"min":     func(n int) rank.ScoringFunc { return rank.NewMin(n) },
		"max":     func(n int) rank.ScoringFunc { return rank.NewMax(n) },
	} {
		t.Run(name, func(t *testing.T) {
			_, q := chainFixture(t, 3, 300)
			preds := append(q.Spec.Preds, &rank.Predicate{
				Index: 3, Name: "close(T0.p,T2.p)", Fn: closeness, Cost: 1,
				Args: []rank.ColumnRef{{Table: "T0", Column: "p"}, {Table: "T2", Column: "p"}},
			})
			q.Spec = rank.MustSpec(f(len(preds)), preds)
			q.Where = expr.And(q.Where, expr.Lt(expr.NewCol("T1", "p"), expr.NewConst(types.NewFloat(0.5))))
			opts := DefaultOptions()
			opts.MinSampleRows = 30
			d, err := decompose(q)
			if err != nil {
				t.Fatal(err)
			}
			est, err := newEstimator(d, opts)
			if err != nil {
				t.Fatal(err)
			}

			var product *PlanNode
			for i, tr := range q.Tables {
				leaf := &PlanNode{Kind: KindSeqScan, Alias: tr.Alias}
				for _, c := range d.sel[i] {
					leaf = &PlanNode{Kind: KindFilter, Cond: c, Children: []*PlanNode{leaf}}
				}
				if product == nil {
					product = leaf
				} else {
					product = &PlanNode{Kind: KindNestedLoop, Children: []*PlanNode{product, leaf}}
				}
			}
			op, err := (&PlanNode{Kind: KindSortScore, Children: []*PlanNode{product}}).Build(est.env)
			if err != nil {
				t.Fatal(err)
			}
			all, err := exec.Run(exec.NewContext(q.Spec), op)
			if err != nil {
				t.Fatal(err)
			}
			if est.KPrime < 2 || est.KPrime > len(all) {
				t.Fatalf("k″ = %d for a %d-tuple cross product", est.KPrime, len(all))
			}
			if want := all[est.KPrime-1].Score; est.XPrime != want {
				t.Errorf("x' = %v, k″-th (k″ = %d) cross-product score %v", est.XPrime, est.KPrime, want)
			}
		})
	}
}
