package exec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ranksql/internal/expr"
	"ranksql/internal/raceflag"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/storage"
	"ranksql/internal/types"
)

// TestHRJNResidualCondition: HRJN with an extra non-equi condition over
// the concatenated schema filters pairs and stays ranked.
func TestHRJNResidualCondition(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	lt := randTable(r, "L", 60, 5, 1)
	rt := randTable(r, "R", 60, 5, 1)
	preds := []*rank.Predicate{
		{Index: 0, Args: []rank.ColumnRef{{Table: "L", Column: "p1"}}, Fn: identFn, Cost: 1},
		{Index: 1, Args: []rank.ColumnRef{{Table: "R", Column: "p1"}}, Fn: identFn, Cost: 1},
	}
	spec := rank.MustSpec(rank.NewSum(2), preds)
	ctx := NewContext(spec)
	l, _ := NewRank(NewSeqScan(lt, "L"), preds[0])
	rr, _ := NewRank(NewSeqScan(rt, "R"), preds[1])
	residual := expr.Gt(expr.NewCol("L", "p1"), expr.NewCol("R", "p1"))
	j, err := NewHRJN(l, rr, expr.NewCol("L", "k"), expr.NewCol("R", "k"), residual)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle count.
	want := 0
	lt.Scan(func(_ schema.TID, lrow []types.Value) bool {
		rt.Scan(func(_ schema.TID, rrow []types.Value) bool {
			lf, _ := lrow[1].AsFloat()
			rf, _ := rrow[1].AsFloat()
			if types.Equal(lrow[0], rrow[0]) && lf > rf {
				want++
			}
			return true
		})
		return true
	})
	if len(out) != want {
		t.Errorf("residual HRJN returned %d rows, want %d", len(out), want)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Score > out[i-1].Score+1e-9 {
			t.Fatal("residual HRJN output unranked")
		}
	}
}

// TestRankScanFusedSelection: the scan-based selection of §4.2 — a
// condition evaluated during the rank-scan — matches filter-above-scan.
func TestRankScanFusedSelection(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	tm := indexedTable(t, randTable(r, "T", 80, 10, 1), 1)
	ri := tm.RankIndex("p1", []string{"p1"})
	spec := tableSpec("T", 1)
	cond := expr.Gt(expr.NewCol("T", "k"), expr.NewConst(types.NewInt(4)))

	ctx1 := NewContext(spec)
	fused, err := NewRankScan(tm.Table, "T", spec.Preds[0], ri, expr.Clone(cond))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(ctx1, fused)
	if err != nil {
		t.Fatal(err)
	}

	ctx2 := NewContext(spec)
	plain, err := NewRankScan(tm.Table, "T", spec.Preds[0], ri, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFilter(plain, expr.Clone(cond))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx2, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("fused %d rows vs filtered %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Score != b[i].Score {
			t.Fatalf("row %d: fused score %v vs filtered %v", i, a[i].Score, b[i].Score)
		}
	}
}

// TestHashJoinResidual: classic hash join with a residual condition.
func TestHashJoinResidual(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	lt := randTable(r, "L", 50, 5, 1)
	rt := randTable(r, "R", 50, 5, 1)
	spec := rank.EmptySpec()
	ctx := NewContext(spec)
	residual := expr.Lt(expr.NewCol("L", "p1"), expr.NewCol("R", "p1"))
	hj, err := NewHashJoin(NewSeqScan(lt, "L"), NewSeqScan(rt, "R"),
		expr.NewCol("L", "k"), expr.NewCol("R", "k"), residual)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(ctx, hj)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	lt.Scan(func(_ schema.TID, lrow []types.Value) bool {
		rt.Scan(func(_ schema.TID, rrow []types.Value) bool {
			lf, _ := lrow[1].AsFloat()
			rf, _ := rrow[1].AsFloat()
			if types.Equal(lrow[0], rrow[0]) && lf < rf {
				want++
			}
			return true
		})
		return true
	})
	if len(out) != want {
		t.Errorf("hash join with residual: %d rows, want %d", len(out), want)
	}
}

// TestJoinSignedZeroKeys: FLOAT 0 and −0 compare equal, so every
// equi-join pairs them: the hash join and HRJN find the one pair the
// nested loop finds.
func TestJoinSignedZeroKeys(t *testing.T) {
	table := func(name string, k float64) *storage.Table {
		tb := storage.NewTable(name, schema.NewSchema(schema.Column{Name: "k", Kind: types.KindFloat}))
		tb.MustAppend([]types.Value{types.NewFloat(k)})
		return tb
	}
	lt, rt := table("L", 0), table("R", math.Copysign(0, -1))
	lk, rk := expr.NewCol("L", "k"), expr.NewCol("R", "k")
	nl, err := NewNestedLoopJoin(NewSeqScan(lt, "L"), NewSeqScan(rt, "R"), expr.Eq(lk, rk))
	if err != nil {
		t.Fatal(err)
	}
	hj, err := NewHashJoin(NewSeqScan(lt, "L"), NewSeqScan(rt, "R"), lk, rk, nil)
	if err != nil {
		t.Fatal(err)
	}
	hrjn, err := NewHRJN(NewSeqScan(lt, "L"), NewSeqScan(rt, "R"), lk, rk, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Operator{nl, hj, hrjn} {
		out, err := Run(NewContext(rank.EmptySpec()), op)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 {
			t.Errorf("%s joins 0 with −0 into %d rows, want 1", op.Name(), len(out))
		}
	}
}

// TestEmptyInputs: every operator behaves on empty inputs.
func TestEmptyInputs(t *testing.T) {
	empty := randTable(rand.New(rand.NewSource(0)), "T", 0, 5, 2)
	other := randTable(rand.New(rand.NewSource(1)), "U", 10, 5, 2)
	spec := tableSpec("T", 2)

	run := func(name string, build func() (Operator, error)) {
		t.Helper()
		op, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ctx := NewContext(spec)
		out, err := Run(ctx, op)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		_ = out
	}
	run("mu", func() (Operator, error) { return NewRank(NewSeqScan(empty, "T"), spec.Preds[0]) })
	run("sortScore", func() (Operator, error) { return NewSortScore(NewSeqScan(empty, "T")), nil })
	run("hrjn-empty-left", func() (Operator, error) {
		return NewHRJN(NewSeqScan(empty, "T"), NewSeqScan(other, "U"),
			expr.NewCol("T", "k"), expr.NewCol("U", "k"), nil)
	})
	run("hrjn-empty-right", func() (Operator, error) {
		return NewHRJN(NewSeqScan(other, "U"), NewSeqScan(empty, "T"),
			expr.NewCol("U", "k"), expr.NewCol("T", "k"), nil)
	})
	run("union-empty", func() (Operator, error) {
		return NewRankUnion(NewSeqScan(empty, "T"), NewSeqScan(empty, "T"))
	})
	run("intersect-one-empty", func() (Operator, error) {
		e := NewSeqScan(empty, "T")
		o := NewSeqScan(other, "U")
		// Schemas are union-compatible by construction (same widths).
		return NewRankIntersect(o, e)
	})
	run("diff-empty-inner", func() (Operator, error) {
		return NewRankDiff(NewSeqScan(other, "U"), NewSeqScan(empty, "T"))
	})
	run("limit-zero", func() (Operator, error) { return NewLimit(NewSeqScan(other, "U"), 0), nil })
}

// TestNRJNNonEquiCondition: a rank join over a genuinely non-equi
// condition (the shape only NRJN can evaluate) against the oracle.
func TestNRJNNonEquiCondition(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	lt := randTable(r, "L", 30, 10, 1)
	rt := randTable(r, "R", 30, 10, 1)
	preds := []*rank.Predicate{
		{Index: 0, Args: []rank.ColumnRef{{Table: "L", Column: "p1"}}, Fn: identFn, Cost: 1},
		{Index: 1, Args: []rank.ColumnRef{{Table: "R", Column: "p1"}}, Fn: identFn, Cost: 1},
	}
	spec := rank.MustSpec(rank.NewSum(2), preds)
	ctx := NewContext(spec)
	l, _ := NewRank(NewSeqScan(lt, "L"), preds[0])
	rr, _ := NewRank(NewSeqScan(rt, "R"), preds[1])
	cond := expr.Lt(expr.NewCol("L", "k"), expr.NewCol("R", "k"))
	j, err := NewNRJN(l, rr, cond)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	lt.Scan(func(_ schema.TID, lrow []types.Value) bool {
		rt.Scan(func(_ schema.TID, rrow []types.Value) bool {
			if types.Compare(lrow[0], rrow[0]) < 0 {
				want++
			}
			return true
		})
		return true
	})
	if len(out) != want {
		t.Errorf("NRJN non-equi: %d rows, want %d", len(out), want)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Score > out[i-1].Score+1e-9 {
			t.Fatal("NRJN output unranked")
		}
	}
	if _, err := NewNRJN(l, rr, nil); err == nil {
		t.Error("NRJN without a condition must be rejected")
	}
}

// TestOperatorNames pins the label each scan and join constructor gives
// its operator: EXPLAIN ANALYZE, the insight layer's operator names and
// /stats per-operator entries all show them.
func TestOperatorNames(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tm := indexedTable(t, randTable(r, "T", 10, 5, 1), 1)
	col, err := tm.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	pred := tableSpec("T", 1).Preds[0]
	ri := tm.RankIndex(predCol(0), []string{predCol(0)})
	kGt := func() expr.Expr { return expr.Gt(expr.NewCol("T", "k"), expr.NewConst(types.NewInt(2))) }
	seq := func(alias string) Operator { return NewSeqScan(tm.Table, alias) }
	lk, rk := expr.NewCol("L", "k"), expr.NewCol("R", "k")
	keq := func() expr.Expr { return expr.Eq(lk, rk) }

	cases := []struct {
		want  string
		build func() (Operator, error)
	}{
		{"idxScan_p1(T)", func() (Operator, error) { return NewRankScan(tm.Table, "T", pred, ri, nil) }},
		{"idxScan_p1(T | (T.k > 2))", func() (Operator, error) { return NewRankScan(tm.Table, "T", pred, ri, kGt()) }},
		{"idxScan_k(T)", func() (Operator, error) { return NewIdxScanCol(tm.Table, "T", "k", col, nil) }},
		{"idxScan_k(T | (T.k > 2))", func() (Operator, error) { return NewIdxScanCol(tm.Table, "T", "k", col, kGt()) }},
		{"HRJN", func() (Operator, error) { return NewHRJN(seq("L"), seq("R"), lk, rk, nil) }},
		{"NRJN", func() (Operator, error) { return NewNRJN(seq("L"), seq("R"), keq()) }},
		{"hashJoin", func() (Operator, error) { return NewHashJoin(seq("L"), seq("R"), lk, rk, nil) }},
		{"nestLoop((L.k = R.k))", func() (Operator, error) { return NewNestedLoopJoin(seq("L"), seq("R"), keq()) }},
		{"nestLoop(×)", func() (Operator, error) { return NewNestedLoopJoin(seq("L"), seq("R"), nil) }},
	}
	for _, c := range cases {
		op, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.want, err)
		}
		if got := op.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

// TestKeylessJoinAllocsScaleWithMatches: a nested-loops join tests its
// condition on a scratch row and allocates only for the pairs that pass,
// so a selective keyless join allocates per match, not per pair. Every
// pair is still one join probe and one comparison.
func TestKeylessJoinAllocsScaleWithMatches(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const matches = 3
	// L.k = 0..n-1 and R.k = n-matches..2n-matches-1 share matches keys.
	table := func(name string, n, from int) *storage.Table {
		tb := storage.NewTable(name, schema.NewSchema(schema.Column{Name: "k", Kind: types.KindInt}))
		for i := 0; i < n; i++ {
			tb.MustAppend([]types.Value{types.NewInt(int64(from + i))})
		}
		return tb
	}
	allocs := map[int]float64{}
	for _, n := range []int{50, 200} {
		lt, rt := table("L", n, 0), table("R", n, n-matches)
		j, err := NewNestedLoopJoin(NewSeqScan(lt, "L"), NewSeqScan(rt, "R"),
			expr.Eq(expr.NewCol("L", "k"), expr.NewCol("R", "k")))
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(nil)
		ctx.Arena = &schema.TupleArena{} // scan tuples come from slabs
		var out []*schema.Tuple
		allocs[n] = testing.AllocsPerRun(5, func() {
			ctx.Reset()
			ctx.Arena.Reset()
			if out, err = Run(ctx, j); err != nil {
				t.Fatal(err)
			}
		})
		if len(out) != matches {
			t.Fatalf("n=%d: %d rows, want %d", n, len(out), matches)
		}
		if pairs := int64(n * n); ctx.Stats.JoinProbes != pairs || ctx.Stats.Comparisons != pairs {
			t.Errorf("n=%d: %d probes, %d comparisons, want %d of each",
				n, ctx.Stats.JoinProbes, ctx.Stats.Comparisons, pairs)
		}
	}
	// 4× the rows is 16× the pairs; only the right side's bucket grows.
	if allocs[200] > allocs[50]+8 || allocs[200] > 64 {
		t.Errorf("allocs per run: %v at n=50, %v at n=200; want them bounded by the matches, not the %d pairs",
			allocs[50], allocs[200], 200*200)
	}
}

// setOpInputs returns L and R over (k INT, p1 FLOAT, p2 FLOAT), sharing
// common of their n rows, and the spec p1 + p2 with p1 evaluated on L's
// side and p2 on R's.
func setOpInputs(n, common int) (*storage.Table, *storage.Table, *rank.Spec) {
	r := rand.New(rand.NewSource(46))
	pool := storage.NewTable("P", schema.NewSchema(
		schema.Column{Name: "k", Kind: types.KindInt},
		schema.Column{Name: "p1", Kind: types.KindFloat},
		schema.Column{Name: "p2", Kind: types.KindFloat},
	))
	for i := 0; i < 2*n-common; i++ {
		pool.MustAppend([]types.Value{types.NewInt(int64(i)), types.NewFloat(r.Float64()), types.NewFloat(r.Float64())})
	}
	pick := func(name string, from int) *storage.Table {
		t := storage.NewTable(name, pool.Schema)
		for _, i := range r.Perm(n) {
			t.MustAppend(pool.Row(schema.TID(from + i)))
		}
		return t
	}
	preds := []*rank.Predicate{
		{Index: 0, Args: []rank.ColumnRef{{Column: "p1"}}, Fn: identFn, Cost: 1},
		{Index: 1, Args: []rank.ColumnRef{{Column: "p2"}}, Fn: identFn, Cost: 1},
	}
	return pick("L", 0), pick("R", n-common), rank.MustSpec(rank.NewSum(2), preds)
}

// TestRankIntersectSweepsPending: with hundreds of one-sided arrivals,
// ∩ holds more than 64 pending entries, so its sweep runs and drops the
// ones whose duplicate can no longer arrive; the output still equals a
// brute-force intersection sorted by p1 + p2, and a full drain leaves
// nothing counted as buffered.
func TestRankIntersectSweepsPending(t *testing.T) {
	const n, common = 300, 100
	lt, rt, spec := setOpInputs(n, common)
	ctx := NewContext(spec)
	l, err := NewRank(NewSeqScan(lt, "L"), spec.Preds[0])
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRank(NewSeqScan(rt, "R"), spec.Preds[1])
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewRankIntersect(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// Rows are distinct within each side, so an arrival either opens a
	// pending entry or completes one (which then counts as emitted): without
	// a sweep, pending would hold drawn − 2·matched entries.
	var out []*schema.Tuple
	swept := 0
	for {
		tp, err := x.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if tp == nil {
			break
		}
		out = append(out, tp)
		if !x.lDone || !x.rDone { // both done drops every pending entry
			drawn := int(l.OutCount() + r.OutCount())
			swept = max(swept, drawn-2*len(x.emitted)-len(x.pending))
		}
	}
	if swept == 0 {
		t.Error("no pending entry was swept")
	}
	// Every buffered tuple was released: swept, matched and emitted, or
	// dropped when both inputs ran out.
	if b := ctx.Stats.Buffered; b != 0 {
		t.Errorf("Stats.Buffered = %d after the drain, want 0", b)
	}
	x.Close()

	type row struct {
		key   string
		score float64
	}
	inR := map[string]bool{}
	rt.Scan(func(_ schema.TID, v []types.Value) bool {
		inR[(&schema.Tuple{Values: v}).ValueKey()] = true
		return true
	})
	var want []row
	lt.Scan(func(_ schema.TID, v []types.Value) bool {
		if k := (&schema.Tuple{Values: v}).ValueKey(); inR[k] {
			want = append(want, row{k, v[1].Float() + v[2].Float()})
		}
		return true
	})
	sort.Slice(want, func(i, j int) bool { return want[i].score > want[j].score })
	if len(out) != len(want) || len(want) != common {
		t.Fatalf("intersection has %d rows, brute force %d (want %d)", len(out), len(want), common)
	}
	for i, tp := range out {
		if tp.ValueKey() != want[i].key || math.Abs(tp.Score-want[i].score) > 1e-9 {
			t.Fatalf("rank %d: %s score %v, brute force %s score %v", i, tp.ValueKey(), tp.Score, want[i].key, want[i].score)
		}
	}
}

// TestSetOpsEvaluated: ∪ and ∩ report P1 ∪ P2 as evaluated, − its outer
// input's P1 (Figure 3).
func TestSetOpsEvaluated(t *testing.T) {
	lt, rt, spec := setOpInputs(10, 5)
	for _, tc := range []struct {
		build func(l, r Operator) (Operator, error)
		want  schema.Bitset
	}{
		{func(l, r Operator) (Operator, error) { return NewRankUnion(l, r) }, schema.Bit(0).With(1)},
		{func(l, r Operator) (Operator, error) { return NewRankIntersect(l, r) }, schema.Bit(0).With(1)},
		{func(l, r Operator) (Operator, error) { return NewRankDiff(l, r) }, schema.Bit(0)},
	} {
		l, err := NewRank(NewSeqScan(lt, "L"), spec.Preds[0])
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRank(NewSeqScan(rt, "R"), spec.Preds[1])
		if err != nil {
			t.Fatal(err)
		}
		op, err := tc.build(l, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(NewContext(spec)); err != nil {
			t.Fatal(err)
		}
		if got := op.Evaluated(); got != tc.want {
			t.Errorf("%s: Evaluated() = %v, want %v", op.Name(), got, tc.want)
		}
		op.Close()
	}
}
