package exec

// Golden tests reproducing the paper's worked examples: the rank-relations
// of Figure 2, the operator results of Figure 4, and the incremental
// execution traces of Figure 6 / Examples 3-4.

import (
	"math"
	"testing"

	"ranksql/internal/catalog"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// colPred builds a ranking predicate that simply reads a score column —
// the paper's Figure 2 tables carry their predicate values as columns for
// pedagogy, and so do these fixtures.
func colPred(index int, name, table, col string) *rank.Predicate {
	return &rank.Predicate{
		Index: index,
		Name:  name,
		Args:  []rank.ColumnRef{{Table: table, Column: col}},
		Fn:    func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f },
		Cost:  1,
	}
}

// paperCatalog builds the R, R', S tables of Figure 2.
func paperCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()

	rsch := schema.NewSchema(
		schema.Column{Name: "a", Kind: types.KindInt},
		schema.Column{Name: "b", Kind: types.KindInt},
		schema.Column{Name: "p1", Kind: types.KindFloat},
		schema.Column{Name: "p2", Kind: types.KindFloat},
	)
	r, err := c.CreateTable("R", rsch)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]float64{
		{1, 2, 0.9, 0.65},
		{2, 3, 0.8, 0.5},
		{3, 4, 0.7, 0.7},
	} {
		r.Table.MustAppend([]types.Value{
			types.NewInt(int64(row[0])), types.NewInt(int64(row[1])),
			types.NewFloat(row[2]), types.NewFloat(row[3]),
		})
	}

	r2sch := schema.NewSchema(
		schema.Column{Name: "a", Kind: types.KindInt},
		schema.Column{Name: "b", Kind: types.KindInt},
		schema.Column{Name: "p1", Kind: types.KindFloat},
		schema.Column{Name: "p2", Kind: types.KindFloat},
	)
	r2, err := c.CreateTable("R2", r2sch)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]float64{
		{1, 2, 0.9, 0.65},
		{3, 4, 0.7, 0.7},
		{5, 1, 0.75, 0.6},
	} {
		r2.Table.MustAppend([]types.Value{
			types.NewInt(int64(row[0])), types.NewInt(int64(row[1])),
			types.NewFloat(row[2]), types.NewFloat(row[3]),
		})
	}

	ssch := schema.NewSchema(
		schema.Column{Name: "a", Kind: types.KindInt},
		schema.Column{Name: "c", Kind: types.KindInt},
		schema.Column{Name: "p3", Kind: types.KindFloat},
		schema.Column{Name: "p4", Kind: types.KindFloat},
		schema.Column{Name: "p5", Kind: types.KindFloat},
	)
	s, err := c.CreateTable("S", ssch)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]float64{
		{4, 3, 0.7, 0.8, 0.9},
		{1, 1, 0.9, 0.85, 0.8},
		{1, 2, 0.5, 0.45, 0.75},
		{4, 2, 0.4, 0.7, 0.95},
		{5, 1, 0.3, 0.9, 0.6},
		{2, 3, 0.25, 0.45, 0.9},
	} {
		s.Table.MustAppend([]types.Value{
			types.NewInt(int64(row[0])), types.NewInt(int64(row[1])),
			types.NewFloat(row[2]), types.NewFloat(row[3]), types.NewFloat(row[4]),
		})
	}
	return c
}

// specF1 is F1 = p1 + p2 over R-shaped tables.
func specF1(table string) *rank.Spec {
	return rank.MustSpec(rank.NewSum(2), []*rank.Predicate{
		colPred(0, "p1", table, "p1"),
		colPred(1, "p2", table, "p2"),
	})
}

// specF2 is F2 = p3 + p4 + p5 over S.
func specF2() *rank.Spec {
	return rank.MustSpec(rank.NewSum(3), []*rank.Predicate{
		colPred(0, "p3", "S", "p3"),
		colPred(1, "p4", "S", "p4"),
		colPred(2, "p5", "S", "p5"),
	})
}

// specF3 is F3 = p1 + p2 + p3 + p4 + p5 over R join S.
func specF3() *rank.Spec {
	return rank.MustSpec(rank.NewSum(5), []*rank.Predicate{
		colPred(0, "p1", "R", "p1"),
		colPred(1, "p2", "R", "p2"),
		colPred(2, "p3", "S", "p3"),
		colPred(3, "p4", "S", "p4"),
		colPred(4, "p5", "S", "p5"),
	})
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// expectScores drains op and checks the (a-column value, score) sequence.
func expectScores(t *testing.T, ctx *Context, op Operator, want [][2]float64) {
	t.Helper()
	got, err := Run(ctx, op)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d:\n%v", len(got), len(want), got)
	}
	for i, w := range want {
		av, _ := got[i].Values[0].AsFloat()
		if !approx(av, w[0]) || !approx(got[i].Score, w[1]) {
			t.Errorf("tuple %d: got (a=%g, score=%g), want (a=%g, score=%g)",
				i, av, got[i].Score, w[0], w[1])
		}
	}
}

// mu builds µ_pred(child), failing the test on bind errors.
func mu(t *testing.T, child Operator, p *rank.Predicate) *Rank {
	t.Helper()
	r, err := NewRank(child, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPaperExamplesFigure2 checks the rank-relations R{p1}, R'{p2}, S{p3}
// of Figure 2(d)-(f).
func TestPaperExamplesFigure2(t *testing.T) {
	c := paperCatalog(t)

	t.Run("R{p1}", func(t *testing.T) {
		spec := specF1("R")
		ctx := NewContext(spec)
		r, _ := c.Table("R")
		op := mu(t, NewSeqScan(r.Table, "R"), spec.Preds[0])
		expectScores(t, ctx, op, [][2]float64{{1, 1.9}, {2, 1.8}, {3, 1.7}})
	})
	t.Run("R2{p2}", func(t *testing.T) {
		spec := specF1("R2")
		ctx := NewContext(spec)
		r2, _ := c.Table("R2")
		op := mu(t, NewSeqScan(r2.Table, "R2"), spec.Preds[1])
		expectScores(t, ctx, op, [][2]float64{{3, 1.7}, {1, 1.65}, {5, 1.6}})
	})
	t.Run("S{p3}", func(t *testing.T) {
		spec := specF2()
		ctx := NewContext(spec)
		s, _ := c.Table("S")
		op := mu(t, NewSeqScan(s.Table, "S"), spec.Preds[0])
		expectScores(t, ctx, op, [][2]float64{
			{1, 2.9}, {4, 2.7}, {1, 2.5}, {4, 2.4}, {5, 2.3}, {2, 2.25},
		})
	})
}

// TestPaperExamplesFigure4 checks each operator result of Figure 4.
func TestPaperExamplesFigure4(t *testing.T) {
	c := paperCatalog(t)

	t.Run("mu_p2(R{p1})", func(t *testing.T) { // Figure 4(a)
		spec := specF1("R")
		ctx := NewContext(spec)
		r, _ := c.Table("R")
		op := mu(t, mu(t, NewSeqScan(r.Table, "R"), spec.Preds[0]), spec.Preds[1])
		expectScores(t, ctx, op, [][2]float64{{1, 1.55}, {3, 1.4}, {2, 1.3}})
	})

	t.Run("select_a>1(R{p1})", func(t *testing.T) { // Figure 4(b)
		spec := specF1("R")
		ctx := NewContext(spec)
		r, _ := c.Table("R")
		cond := expr.Gt(expr.NewCol("R", "a"), expr.NewConst(types.NewInt(1)))
		f, err := NewFilter(mu(t, NewSeqScan(r.Table, "R"), spec.Preds[0]), cond)
		if err != nil {
			t.Fatal(err)
		}
		expectScores(t, ctx, f, [][2]float64{{2, 1.8}, {3, 1.7}})
	})

	// The set operations run R{p1} against R2{p2}; the spec's predicates
	// are declared on R but bind by column name inside the set operators.
	setup := func(t *testing.T) (*Context, Operator, Operator) {
		spec := specF1("R")
		ctx := NewContext(spec)
		r, _ := c.Table("R")
		r2, _ := c.Table("R2")
		left := mu(t, NewSeqScan(r.Table, "R"), spec.Preds[0])
		rightPred := colPred(1, "p2", "R2", "p2")
		right := mu(t, NewSeqScan(r2.Table, "R2"), rightPred)
		return ctx, left, right
	}

	t.Run("intersect", func(t *testing.T) { // Figure 4(c)
		ctx, left, right := setup(t)
		op, err := NewRankIntersect(left, right)
		if err != nil {
			t.Fatal(err)
		}
		expectScores(t, ctx, op, [][2]float64{{1, 1.55}, {3, 1.4}})
	})

	t.Run("union", func(t *testing.T) { // Figure 4(d)
		ctx, left, right := setup(t)
		op, err := NewRankUnion(left, right)
		if err != nil {
			t.Fatal(err)
		}
		expectScores(t, ctx, op, [][2]float64{{1, 1.55}, {3, 1.4}, {5, 1.35}, {2, 1.3}})
	})

	t.Run("difference", func(t *testing.T) { // Figure 4(e)
		ctx, left, right := setup(t)
		op, err := NewRankDiff(left, right)
		if err != nil {
			t.Fatal(err)
		}
		expectScores(t, ctx, op, [][2]float64{{2, 1.8}})
	})

	t.Run("join", func(t *testing.T) { // Figure 4(f)
		spec := specF3()
		ctx := NewContext(spec)
		r, _ := c.Table("R")
		s, _ := c.Table("S")
		left := mu(t, NewSeqScan(r.Table, "R"), spec.Preds[0])
		right := mu(t, NewSeqScan(s.Table, "S"), spec.Preds[2])
		op, err := NewHRJN(left, right, expr.NewCol("R", "a"), expr.NewCol("S", "a"), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Figure 4(f) displays the top two results; the complete join also
		// contains r2xs6 (a=2) with F3{p1,p3} = 0.8+0.25+3 = 4.05.
		expectScores(t, ctx, op, [][2]float64{{1, 4.8}, {1, 4.4}, {2, 4.05}})
	})
}

// figure6Plan builds Figure 6(b)'s plan (µ_second(µ_first(idxScan_p3(S))))
// with a real rank index on p3, and returns the operators for inspection.
func figure6Plan(t *testing.T, c *catalog.Catalog, spec *rank.Spec, first, second int) (*Limit, *IndexScan, *Rank, *Rank) {
	t.Helper()
	s, _ := c.Table("S")
	if s.RankIndex("p3", []string{"p3"}) == nil {
		_, err := s.CreateRankIndex("p3", []string{"p3"}, func(args []types.Value) float64 {
			f, _ := args[0].AsFloat()
			return f
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	scan, err := NewRankScan(s.Table, "S", spec.Preds[0], s.RankIndex("p3", []string{"p3"}), nil)
	if err != nil {
		t.Fatal(err)
	}
	m1 := mu(t, scan, spec.Preds[first])
	m2 := mu(t, m1, spec.Preds[second])
	return NewLimit(m2, 1), scan, m1, m2
}

// TestFigure6PlanB verifies the incremental trace of Figure 6(b) and the
// cost accounting of Example 4: scan 3 tuples, evaluate p4 on 3 and p5 on 2.
func TestFigure6PlanB(t *testing.T) {
	c := paperCatalog(t)
	spec := specF2()
	ctx := NewContext(spec)
	top, scan, m1, m2 := figure6Plan(t, c, spec, 1, 2) // µp5(µp4(idxScan_p3))

	got, err := Run(ctx, top)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("want 1 result, got %d", len(got))
	}
	// Top-1 is s2 = (1,1) with full score 2.55.
	if v, _ := got[0].Values[0].AsFloat(); v != 1 || !approx(got[0].Score, 2.55) {
		t.Fatalf("top-1 = %v, want s2 with score 2.55", got[0])
	}
	if scan.OutCount() != 3 {
		t.Errorf("idxScan_p3 output %d tuples, want 3", scan.OutCount())
	}
	if m1.OutCount() != 2 {
		t.Errorf("rank_p4 output %d tuples, want 2", m1.OutCount())
	}
	if m2.OutCount() != 1 {
		t.Errorf("rank_p5 output %d tuples, want 1", m2.OutCount())
	}
	// Example 4: predicate evaluation cost 3*C4 + 2*C5 with unit costs;
	// the rank-scan itself charges nothing (index provides p3).
	if ctx.Stats.PredEvals != 5 {
		t.Errorf("predicate evaluations = %d, want 5 (3x p4 + 2x p5)", ctx.Stats.PredEvals)
	}
	if ctx.Stats.TuplesScanned != 3 {
		t.Errorf("tuples scanned = %d, want 3", ctx.Stats.TuplesScanned)
	}
}

// TestFigure6PlanC verifies Figure 6(c) (µ order reversed): scan 5 tuples,
// evaluate p5 on 5 and p4 on 3.
func TestFigure6PlanC(t *testing.T) {
	c := paperCatalog(t)
	spec := specF2()
	ctx := NewContext(spec)
	top, scan, m1, m2 := figure6Plan(t, c, spec, 2, 1) // µp4(µp5(idxScan_p3))

	got, err := Run(ctx, top)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !approx(got[0].Score, 2.55) {
		t.Fatalf("top-1 = %v, want s2 with score 2.55", got)
	}
	if scan.OutCount() != 5 {
		t.Errorf("idxScan_p3 output %d tuples, want 5", scan.OutCount())
	}
	if m1.OutCount() != 3 {
		t.Errorf("rank_p5 output %d tuples, want 3", m1.OutCount())
	}
	if m2.OutCount() != 1 {
		t.Errorf("rank_p4 output %d tuples, want 1", m2.OutCount())
	}
	if ctx.Stats.PredEvals != 8 {
		t.Errorf("predicate evaluations = %d, want 8 (5x p5 + 3x p4)", ctx.Stats.PredEvals)
	}
	if ctx.Stats.TuplesScanned != 5 {
		t.Errorf("tuples scanned = %d, want 5", ctx.Stats.TuplesScanned)
	}
}

// TestFigure6PlanA verifies the traditional materialize-then-sort plan of
// Figure 6(a): all 6 tuples scanned, all predicates evaluated on each.
func TestFigure6PlanA(t *testing.T) {
	c := paperCatalog(t)
	spec := specF2()
	ctx := NewContext(spec)
	s, _ := c.Table("S")
	top := NewLimit(NewSortScore(NewSeqScan(s.Table, "S")), 1)

	got, err := Run(ctx, top)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !approx(got[0].Score, 2.55) {
		t.Fatalf("top-1 = %v, want s2 with score 2.55", got)
	}
	if ctx.Stats.TuplesScanned != 6 {
		t.Errorf("tuples scanned = %d, want 6", ctx.Stats.TuplesScanned)
	}
	if ctx.Stats.PredEvals != 18 {
		t.Errorf("predicate evaluations = %d, want 18 (6 tuples x 3 preds)", ctx.Stats.PredEvals)
	}
}
