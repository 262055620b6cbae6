package exec

// Property tests: every incremental rank-aware operator is checked against
// a brute-force oracle on randomized inputs, with testing/quick driving
// the seeds. The oracle materializes, applies the operator's definitional
// semantics (Figure 3), sorts by upper bound, and compares score
// sequences (ties may permute; scores must match position-wise).

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ranksql/internal/catalog"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/storage"
	"ranksql/internal/types"
)

// randTable builds a table with columns (k INT, p1..pn FLOAT) where k is a
// join/value column and p_i are predicate score columns.
func randTable(r *rand.Rand, name string, rows, keyspace, npreds int) *storage.Table {
	cols := []schema.Column{{Name: "k", Kind: types.KindInt}}
	for i := 0; i < npreds; i++ {
		cols = append(cols, schema.Column{Name: predCol(i), Kind: types.KindFloat})
	}
	t := storage.NewTable(name, schema.NewSchema(cols...))
	for i := 0; i < rows; i++ {
		row := []types.Value{types.NewInt(int64(r.Intn(keyspace)))}
		for j := 0; j < npreds; j++ {
			row = append(row, types.NewFloat(float64(r.Intn(101))/100))
		}
		t.MustAppend(row)
	}
	return t
}

// nullKeys copies t with about one key in five set to NULL.
func nullKeys(r *rand.Rand, t *storage.Table) *storage.Table {
	out := storage.NewTable(t.Name, t.Schema)
	t.Scan(func(_ schema.TID, row []types.Value) bool {
		row = append([]types.Value(nil), row...)
		if r.Intn(5) == 0 {
			row[0] = types.Null()
		}
		out.MustAppend(row)
		return true
	})
	return out
}

// indexedTable loads tbl into a catalog table with a rank index on every
// score column, under the identity scorer tableSpec's predicates use.
func indexedTable(t *testing.T, tbl *storage.Table, npreds int) *catalog.TableMeta {
	t.Helper()
	tm, err := catalog.New().CreateTable(tbl.Name, tbl.Schema)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Scan(func(_ schema.TID, row []types.Value) bool {
		tm.Table.MustAppend(row)
		return true
	})
	ident := func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f }
	for i := 0; i < npreds; i++ {
		if _, err := tm.CreateRankIndex(predCol(i), []string{predCol(i)}, ident); err != nil {
			t.Fatal(err)
		}
	}
	return tm
}

func predCol(i int) string {
	return "p" + string(rune('1'+i))
}

// tableSpec builds a spec with one identity predicate per score column of
// the given alias.
func tableSpec(alias string, npreds int) *rank.Spec {
	preds := make([]*rank.Predicate, npreds)
	for i := 0; i < npreds; i++ {
		preds[i] = &rank.Predicate{
			Index: i,
			Name:  predCol(i),
			Args:  []rank.ColumnRef{{Table: alias, Column: predCol(i)}},
			Fn:    func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f },
			Cost:  1,
		}
	}
	return rank.MustSpec(rank.NewSum(npreds), preds)
}

// drainScores runs the operator and returns output scores, checking the
// stream is non-increasing (the rank-relation contract).
func drainScores(t *testing.T, ctx *Context, op Operator) []float64 {
	t.Helper()
	out, err := Run(ctx, op)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	scores := make([]float64, len(out))
	prev := math.Inf(1)
	for i, tp := range out {
		scores[i] = tp.Score
		if tp.Score > prev+1e-9 {
			t.Fatalf("output not in non-increasing score order at %d: %v", i, scores)
		}
		prev = tp.Score
	}
	return scores
}

func sortedDesc(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// TestMuChainVsOracle: any permutation of a full µ chain over a scan must
// produce the totally-ranked relation.
func TestMuChainVsOracle(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 3
		tbl := randTable(r, "T", 1+r.Intn(60), 10, n)
		spec := tableSpec("T", n)
		ctx := NewContext(spec)

		perm := r.Perm(n)
		var op Operator = NewSeqScan(tbl, "T")
		for _, pi := range perm {
			m, err := NewRank(op, spec.Preds[pi])
			if err != nil {
				return false
			}
			op = m
		}
		got, err := Run(ctx, op)
		if err != nil {
			return false
		}
		// Oracle: full scores sorted descending.
		var want []float64
		tbl.Scan(func(_ schema.TID, row []types.Value) bool {
			s := 0.0
			for i := 0; i < n; i++ {
				f, _ := row[1+i].AsFloat()
				s += f
			}
			want = append(want, s)
			return true
		})
		gotScores := make([]float64, len(got))
		for i, tp := range got {
			gotScores[i] = tp.Score
		}
		return floatsEqual(gotScores, sortedDesc(want))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHRJNVsOracle: HRJN over two ranked inputs equals the sorted
// brute-force join, where a NULL key equals nothing.
func TestHRJNVsOracle(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lt := nullKeys(r, randTable(r, "L", 1+r.Intn(40), 6, 1))
		rt := nullKeys(r, randTable(r, "R", 1+r.Intn(40), 6, 1))
		// Spec: p1 on L (index 0), p1 on R (index 1).
		preds := []*rank.Predicate{
			{Index: 0, Name: "lp", Args: []rank.ColumnRef{{Table: "L", Column: "p1"}},
				Fn: identFn, Cost: 1},
			{Index: 1, Name: "rp", Args: []rank.ColumnRef{{Table: "R", Column: "p1"}},
				Fn: identFn, Cost: 1},
		}
		spec := rank.MustSpec(rank.NewSum(2), preds)
		ctx := NewContext(spec)

		l, err := NewRank(NewSeqScan(lt, "L"), preds[0])
		if err != nil {
			return false
		}
		rr, err := NewRank(NewSeqScan(rt, "R"), preds[1])
		if err != nil {
			return false
		}
		join, err := NewHRJN(l, rr, expr.NewCol("L", "k"), expr.NewCol("R", "k"), nil)
		if err != nil {
			return false
		}
		got, err := Run(ctx, join)
		if err != nil {
			return false
		}
		gotScores := make([]float64, len(got))
		prev := math.Inf(1)
		for i, tp := range got {
			gotScores[i] = tp.Score
			if tp.Score > prev+1e-9 {
				return false // emission order violated
			}
			prev = tp.Score
		}
		// Oracle.
		var want []float64
		lt.Scan(func(_ schema.TID, lrow []types.Value) bool {
			rt.Scan(func(_ schema.TID, rrow []types.Value) bool {
				if !lrow[0].IsNull() && types.Equal(lrow[0], rrow[0]) {
					lf, _ := lrow[1].AsFloat()
					rf, _ := rrow[1].AsFloat()
					want = append(want, lf+rf)
				}
				return true
			})
			return true
		})
		return floatsEqual(gotScores, sortedDesc(want))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func identFn(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f }

// TestNRJNMatchesHRJN: with an equi condition, NRJN and HRJN agree, NULL
// keys included.
func TestNRJNMatchesHRJN(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lt := nullKeys(r, randTable(r, "L", 1+r.Intn(30), 5, 1))
		rt := nullKeys(r, randTable(r, "R", 1+r.Intn(30), 5, 1))
		preds := []*rank.Predicate{
			{Index: 0, Args: []rank.ColumnRef{{Table: "L", Column: "p1"}}, Fn: identFn, Cost: 1},
			{Index: 1, Args: []rank.ColumnRef{{Table: "R", Column: "p1"}}, Fn: identFn, Cost: 1},
		}
		spec := rank.MustSpec(rank.NewSum(2), preds)

		build := func(useHash bool) []float64 {
			ctx := NewContext(spec)
			l, _ := NewRank(NewSeqScan(lt, "L"), preds[0])
			rr, _ := NewRank(NewSeqScan(rt, "R"), preds[1])
			var join Operator
			if useHash {
				join, _ = NewHRJN(l, rr, expr.NewCol("L", "k"), expr.NewCol("R", "k"), nil)
			} else {
				join, _ = NewNRJN(l, rr, expr.Eq(expr.NewCol("L", "k"), expr.NewCol("R", "k")))
			}
			out, err := Run(ctx, join)
			if err != nil {
				return nil
			}
			s := make([]float64, len(out))
			for i, tp := range out {
				s[i] = tp.Score
			}
			return s
		}
		return floatsEqual(build(true), build(false))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSetOpsVsOracle: rank-aware ∪, ∩, − against set-semantics oracles.
func TestSetOpsVsOracle(t *testing.T) {
	mk := func(seed int64) (*storage.Table, *storage.Table, *rank.Spec) {
		r := rand.New(rand.NewSource(seed))
		// Shared keyspace so overlaps happen; identical (k, p1, p2)
		// columns. Set semantics are on full-value tuples, so generate
		// rows from a small pool to force duplicates.
		pool := randTable(r, "P", 12, 4, 2)
		pick := func(name string, n int) *storage.Table {
			t := storage.NewTable(name, pool.Schema)
			for i := 0; i < n; i++ {
				t.MustAppend(pool.Row(schema.TID(r.Intn(pool.NumRows()))))
			}
			return t
		}
		lt := pick("L", 1+r.Intn(15))
		rt := pick("R", 1+r.Intn(15))
		preds := []*rank.Predicate{
			{Index: 0, Args: []rank.ColumnRef{{Column: "p1"}}, Fn: identFn, Cost: 1},
			{Index: 1, Args: []rank.ColumnRef{{Column: "p2"}}, Fn: identFn, Cost: 1},
		}
		return lt, rt, rank.MustSpec(rank.NewSum(2), preds)
	}

	type oracleFn func(l, r map[string]float64) map[string]float64
	oracles := map[string]struct {
		build  func(l, r Operator) (Operator, error)
		oracle oracleFn
		// orderByOuter: difference orders by F_{P1}; others by final.
		outerOrder bool
	}{
		"union": {
			build: func(l, r Operator) (Operator, error) { return NewRankUnion(l, r) },
			oracle: func(l, r map[string]float64) map[string]float64 {
				out := map[string]float64{}
				for k, v := range l {
					out[k] = v
				}
				for k, v := range r {
					out[k] = v
				}
				return out
			},
		},
		"intersect": {
			build: func(l, r Operator) (Operator, error) { return NewRankIntersect(l, r) },
			oracle: func(l, r map[string]float64) map[string]float64 {
				out := map[string]float64{}
				for k, v := range l {
					if _, ok := r[k]; ok {
						out[k] = v
					}
				}
				return out
			},
		},
		"diff": {
			build:      func(l, r Operator) (Operator, error) { return NewRankDiff(l, r) },
			outerOrder: true,
			oracle: func(l, r map[string]float64) map[string]float64 {
				out := map[string]float64{}
				for k, v := range l {
					if _, ok := r[k]; !ok {
						out[k] = v
					}
				}
				return out
			},
		},
	}

	for name, tc := range oracles {
		tc := tc
		t.Run(name, func(t *testing.T) {
			prop := func(seed int64) bool {
				lt, rt, spec := mk(seed)
				ctx := NewContext(spec)
				l, err := NewRank(NewSeqScan(lt, "L"), spec.Preds[0])
				if err != nil {
					return false
				}
				r, err := NewRank(NewSeqScan(rt, "R"), spec.Preds[1])
				if err != nil {
					return false
				}
				op, err := tc.build(l, r)
				if err != nil {
					return false
				}
				out, err := Run(ctx, op)
				if err != nil {
					return false
				}

				// Build oracle maps keyed by full-value key; value = the
				// relevant score (full F for union/intersect, F_{p1}
				// partial bound for difference).
				score := func(row []types.Value, outer bool) float64 {
					p1, _ := row[1].AsFloat()
					p2, _ := row[2].AsFloat()
					if outer {
						return p1 + 1 // F_{P1} upper bound: p2 unknown → max 1
					}
					return p1 + p2
				}
				key := func(row []types.Value) string {
					tp := &schema.Tuple{Values: row}
					return string(tp.AppendValueKey(nil))
				}
				lm := map[string]float64{}
				lt.Scan(func(_ schema.TID, row []types.Value) bool {
					lm[key(row)] = score(row, tc.outerOrder)
					return true
				})
				rm := map[string]float64{}
				rt.Scan(func(_ schema.TID, row []types.Value) bool {
					rm[key(row)] = score(row, false)
					return true
				})
				wantMap := tc.oracle(lm, rm)
				var want []float64
				for _, v := range wantMap {
					want = append(want, v)
				}
				got := make([]float64, len(out))
				for i, tp := range out {
					got[i] = tp.Score
				}
				return floatsEqual(got, sortedDesc(want))
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestClassicJoinsAgree: NLJ, hash join and sort-merge join produce the
// same multiset of rows on equi-joins, NULL keys included.
func TestClassicJoinsAgree(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lt := nullKeys(r, randTable(r, "L", 1+r.Intn(40), 5, 1))
		rt := nullKeys(r, randTable(r, "R", 1+r.Intn(40), 5, 1))
		spec := rank.EmptySpec()

		keys := func(op Operator) []string {
			ctx := NewContext(spec)
			out, err := Run(ctx, op)
			if err != nil {
				return nil
			}
			ks := make([]string, len(out))
			for i, tp := range out {
				ks[i] = identityKey(tp)
			}
			sort.Strings(ks)
			return ks
		}
		lk, rk := expr.NewCol("L", "k"), expr.NewCol("R", "k")

		nl, _ := NewNestedLoopJoin(NewSeqScan(lt, "L"), NewSeqScan(rt, "R"),
			expr.Eq(expr.NewCol("L", "k"), expr.NewCol("R", "k")))
		hj, _ := NewHashJoin(NewSeqScan(lt, "L"), NewSeqScan(rt, "R"), lk, rk, nil)
		ls, _ := NewSortColumn(NewSeqScan(lt, "L"), "L", "k")
		rs, _ := NewSortColumn(NewSeqScan(rt, "R"), "R", "k")
		mj, _ := NewSortMergeJoin(ls, rs, lk, rk, nil)

		a, b, c := keys(nl), keys(hj), keys(mj)
		if len(a) != len(b) || len(b) != len(c) {
			return false
		}
		for i := range a {
			if a[i] != b[i] || b[i] != c[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRankScanMatchesMu: a rank-scan over a rank index equals µ_p(seqScan).
func TestRankScanMatchesMu(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tbl := randTable(r, "T", 50, 10, 1)
	spec := tableSpec("T", 1)
	tm := indexedTable(t, tbl, 1)

	ctx1 := NewContext(spec)
	rs, err := NewRankScan(tm.Table, "T", spec.Preds[0], tm.RankIndex("p1", []string{"p1"}), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := drainScores(t, ctx1, rs)

	ctx2 := NewContext(spec)
	m, err := NewRank(NewSeqScan(tbl, "T"), spec.Preds[0])
	if err != nil {
		t.Fatal(err)
	}
	b := drainScores(t, ctx2, m)
	if !floatsEqual(a, b) {
		t.Errorf("rank-scan %v != µ(seqScan) %v", a, b)
	}
}

// TestScansNeedIndexes: the index scans have one, index-driven mode, so
// building one without its index is an error.
func TestScansNeedIndexes(t *testing.T) {
	tbl := randTable(rand.New(rand.NewSource(6)), "T", 5, 3, 1)
	if _, err := NewRankScan(tbl, "T", tableSpec("T", 1).Preds[0], nil, nil); err == nil {
		t.Error("rank-scan without a rank index built")
	}
	if _, err := NewIdxScanCol(tbl, "T", "k", nil, nil); err == nil {
		t.Error("column scan without an index built")
	}
}

// TestCancellation: a closed cancel channel interrupts execution.
func TestCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tbl := randTable(r, "T", 10000, 10, 1)
	spec := tableSpec("T", 1)
	ctx := NewContext(spec)
	cancel := make(chan struct{})
	close(cancel)
	ctx.Cancel = cancel
	m, err := NewRank(NewSeqScan(tbl, "T"), spec.Preds[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 10000; i++ {
		_, err := m.Next(ctx)
		if err == ErrInterrupted {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("execution never observed cancellation")
}

// TestErroringPredicate: errors from expression evaluation propagate.
func TestErroringFilter(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tbl := randTable(r, "T", 10, 3, 1)
	spec := tableSpec("T", 1)
	ctx := NewContext(spec)
	// k / (k - k) divides by zero.
	k := expr.NewCol("T", "k")
	bad := expr.Gt(expr.NewBinary(expr.OpDiv, k, expr.NewBinary(expr.OpSub, expr.Clone(k), expr.Clone(k))), expr.NewConst(types.NewInt(0)))
	f, err := NewFilter(NewSeqScan(tbl, "T"), bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, f); err == nil {
		t.Error("division by zero in filter did not propagate")
	}
}

// TestLimitStopsEarly: a limit over a µ chain must not exhaust the scan.
func TestLimitStopsEarly(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tm := indexedTable(t, randTable(r, "T", 5000, 10, 1), 1)
	spec := tableSpec("T", 1)
	ctx := NewContext(spec)
	rs, err := NewRankScan(tm.Table, "T", spec.Preds[0], tm.RankIndex("p1", []string{"p1"}), nil)
	if err != nil {
		t.Fatal(err)
	}
	lim := NewLimit(rs, 3)
	out, err := Run(ctx, lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("limit returned %d", len(out))
	}
	if rs.OutCount() != 3 {
		t.Errorf("limit drew %d tuples from child, want 3", rs.OutCount())
	}
}

// TestProjectPreservesRanking: projection keeps scores and order.
func TestProjectPreservesRanking(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tbl := randTable(r, "T", 40, 10, 2)
	spec := tableSpec("T", 2)
	ctx := NewContext(spec)
	m1, _ := NewRank(NewSeqScan(tbl, "T"), spec.Preds[0])
	m2, _ := NewRank(m1, spec.Preds[1])
	proj, err := NewProject(m2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	out := drainScores(t, ctx, proj)
	if len(out) != 40 {
		t.Fatalf("project lost tuples: %d", len(out))
	}
	if proj.Schema().Len() != 1 {
		t.Error("schema not narrowed")
	}
}

// floatKeyTable copies t with its key column k widened to FLOAT, so an
// INT key on one side of a join meets equal FLOAT keys on the other.
func floatKeyTable(t *storage.Table) *storage.Table {
	cols := append([]schema.Column(nil), t.Schema.Columns...)
	cols[0].Kind = types.KindFloat
	out := storage.NewTable(t.Name, schema.NewSchema(cols...))
	t.Scan(func(_ schema.TID, row []types.Value) bool {
		out.MustAppend(append([]types.Value(nil), row...))
		return true
	})
	return out
}

// twoTableSpec ranks by lp = L.p1 (index 0) plus rp = R.p1 (index 1).
func twoTableSpec() (*rank.Spec, []*rank.Predicate) {
	preds := []*rank.Predicate{
		{Index: 0, Name: "lp", Args: []rank.ColumnRef{{Table: "L", Column: "p1"}}, Fn: identFn, Cost: 1},
		{Index: 1, Name: "rp", Args: []rank.ColumnRef{{Table: "R", Column: "p1"}}, Fn: identFn, Cost: 1},
	}
	return rank.MustSpec(rank.NewSum(2), preds), preds
}

// TestHashJoinIsKeyedNestedLoop: the hash join on lk = rk with residual
// res and the nested loop on lk = rk ∧ res emit the identical tuple
// sequence — NULL keys (which join nothing), duplicate keys, an INT key
// meeting equal FLOAT keys, with and without a residual. The optimizer
// relies on it to price the nested loop on the hash join's sample run.
func TestHashJoinIsKeyedNestedLoop(t *testing.T) {
	spec, _ := twoTableSpec()
	lk, rk := expr.NewCol("L", "k"), expr.NewCol("R", "k")
	residuals := []func() expr.Expr{
		func() expr.Expr { return nil },
		func() expr.Expr { return expr.Lt(expr.NewCol("L", "p1"), expr.NewCol("R", "p1")) },
		func() expr.Expr {
			return expr.Gt(expr.NewBinary(expr.OpAdd, expr.NewCol("L", "p1"), expr.NewCol("R", "p1")),
				expr.NewConst(types.NewFloat(0.8)))
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lt := nullKeys(r, randTable(r, "L", 1+r.Intn(40), 5, 1))
		rt := nullKeys(r, floatKeyTable(randTable(r, "R", 1+r.Intn(40), 5, 1)))
		mk := residuals[r.Intn(len(residuals))]

		run := func(op Operator, err error) []*schema.Tuple {
			if err != nil {
				t.Fatal(err)
			}
			out, err := Run(NewContext(spec), op)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		hj := run(NewHashJoin(NewSeqScan(lt, "L"), NewSeqScan(rt, "R"), lk, rk, mk()))
		nl := run(NewNestedLoopJoin(NewSeqScan(lt, "L"), NewSeqScan(rt, "R"),
			expr.And(expr.Eq(expr.NewCol("L", "k"), expr.NewCol("R", "k")), mk())))
		if len(hj) != len(nl) {
			t.Logf("seed %d: hash join %d tuples, nested loop %d", seed, len(hj), len(nl))
			return false
		}
		for i := range hj {
			if hj[i].String() != nl[i].String() || identityKey(hj[i]) != identityKey(nl[i]) {
				t.Logf("seed %d: tuple %d: hash join %s, nested loop %s", seed, i, hj[i], nl[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// snapSource hands out fixed tuples in order and snapshots the ranking
// state (Preds, Evaluated, Score) of each as it hands it out, so a test
// can check after Drain that the reader wrote none of it.
type snapSource struct {
	opBase
	ev    schema.Bitset
	rows  []*schema.Tuple
	pos   int
	snaps []schema.Tuple
}

// snapshotOf drains op into a snapSource with op's schema and evaluated
// set.
func snapshotOf(t *testing.T, ctx *Context, op Operator) *snapSource {
	t.Helper()
	rows, err := Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	s := &snapSource{ev: op.Evaluated(), rows: rows}
	s.sch = op.Schema()
	return s
}

func (s *snapSource) Open(*Context) error {
	s.reset()
	s.pos, s.snaps = 0, nil
	return nil
}

func (s *snapSource) Next(*Context) (*schema.Tuple, error) {
	if s.pos == len(s.rows) {
		return nil, nil
	}
	tp := s.rows[s.pos]
	s.pos++
	s.snaps = append(s.snaps, schema.Tuple{Preds: append([]float64(nil), tp.Preds...),
		Evaluated: tp.Evaluated, Score: tp.Score})
	return s.emit(tp), nil
}

func (s *snapSource) Close() error             { return nil }
func (s *snapSource) Evaluated() schema.Bitset { return s.ev }
func (s *snapSource) Name() string             { return "snapSource" }
func (s *snapSource) Children() []Operator     { return nil }

// written reports the first handed-out tuple whose ranking state differs
// from its snapshot, or "".
func (s *snapSource) written() string {
	for i, was := range s.snaps {
		now := s.rows[i]
		if now.Evaluated != was.Evaluated || now.Score != was.Score || !floatsEqual(now.Preds, was.Preds) {
			return fmt.Sprintf("tuple %d: was %v P=%v score=%v, now %v", i, was.Preds, was.Evaluated, was.Score, now)
		}
	}
	return ""
}

// TestOnlyMuAndSortScoreWriteInputs: every plan operator other than µ
// (Rank) and τ_F (SortScore) leaves the Preds, Evaluated and Score of the
// tuples its inputs hand it unchanged. The optimizer's sample runs rely
// on it: they hand kept tuples to every other reader in place. µ and τ_F
// are checked to write, so the check is not vacuous. (The set operators
// complete one-sided arrivals in place too; the optimizer never plans
// them.)
func TestOnlyMuAndSortScoreWriteInputs(t *testing.T) {
	spec, preds := twoTableSpec()
	lk, rk := expr.NewCol("L", "k"), expr.NewCol("R", "k")
	cases := []struct {
		name   string
		ranked bool // inputs ranked by µ_lp / µ_rp
		writes bool
		build  func(l, r Operator) (Operator, error)
	}{
		{"filter", true, false, func(l, _ Operator) (Operator, error) {
			return NewFilter(l, expr.Lt(expr.NewCol("L", "p1"), expr.NewConst(types.NewFloat(0.5))))
		}},
		{"limit", true, false, func(l, _ Operator) (Operator, error) { return NewLimit(l, 5), nil }},
		{"project", true, false, func(l, _ Operator) (Operator, error) { return NewProject(l, []int{1, 0}) }},
		{"sortCol", true, false, func(l, _ Operator) (Operator, error) { return NewSortColumn(l, "L", "k") }},
		{"hashJoin", false, false, func(l, r Operator) (Operator, error) {
			return NewHashJoin(l, r, lk, rk, expr.Lt(expr.NewCol("L", "p1"), expr.NewCol("R", "p1")))
		}},
		{"nestLoop", false, false, func(l, r Operator) (Operator, error) {
			return NewNestedLoopJoin(l, r, expr.Eq(lk, rk))
		}},
		{"mergeJoin", false, false, func(l, r Operator) (Operator, error) {
			ls, err := NewSortColumn(l, "L", "k")
			if err != nil {
				return nil, err
			}
			rs, err := NewSortColumn(r, "R", "k")
			if err != nil {
				return nil, err
			}
			return NewSortMergeJoin(ls, rs, lk, rk, nil)
		}},
		{"HRJN", true, false, func(l, r Operator) (Operator, error) { return NewHRJN(l, r, lk, rk, nil) }},
		{"NRJN", true, false, func(l, r Operator) (Operator, error) {
			return NewNRJN(l, r, expr.NewBinary(expr.OpLe, expr.NewCol("L", "k"), expr.NewCol("R", "k")))
		}},
		{"rank", false, true, func(l, _ Operator) (Operator, error) { return NewRank(l, preds[0]) }},
		{"sort_F", true, true, func(l, _ Operator) (Operator, error) { return NewSortScore(l), nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				r := rand.New(rand.NewSource(seed))
				lt := nullKeys(r, randTable(r, "L", 1+r.Intn(40), 5, 1))
				rt := nullKeys(r, randTable(r, "R", 1+r.Intn(40), 5, 1))
				ctx := NewContext(spec)
				var lop, rop Operator = NewSeqScan(lt, "L"), NewSeqScan(rt, "R")
				if tc.ranked {
					var err error
					if lop, err = NewRank(lop, preds[0]); err != nil {
						t.Fatal(err)
					}
					if rop, err = NewRank(rop, preds[1]); err != nil {
						t.Fatal(err)
					}
				}
				l, rr := snapshotOf(t, ctx, lop), snapshotOf(t, ctx, rop)
				op, err := tc.build(l, rr)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Run(ctx, op); err != nil {
					t.Fatal(err)
				}
				if len(l.snaps) < len(l.rows) && tc.name != "limit" {
					t.Fatalf("seed %d: read %d of %d left tuples", seed, len(l.snaps), len(l.rows))
				}
				got := l.written()
				if got == "" {
					got = rr.written()
				}
				switch {
				case tc.writes && got == "" && len(l.rows) > 0:
					t.Fatalf("seed %d: %s wrote no input tuple", seed, tc.name)
				case !tc.writes && got != "":
					t.Fatalf("seed %d: %s wrote an input tuple: %s", seed, tc.name, got)
				}
			}
		})
	}
}

// identityKey names the base tuples a row is derived from.
func identityKey(t *schema.Tuple) string { return fmt.Sprint(t.TIDs) }
