package exec

// Micro-benchmarks for the physical operators: the rank operator µ, the
// rank joins, and the access paths. These are ablations for the design
// choices DESIGN.md calls out (ranking queues, threshold emission,
// rank-scan vs µ-over-scan).

import (
	"fmt"
	"math/rand"
	"testing"

	"ranksql/internal/catalog"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/types"
)

func benchTable(rows, keyspace, npreds int) *catalog.TableMeta {
	r := rand.New(rand.NewSource(42))
	cat := catalog.New()
	cols := []schema.Column{{Name: "k", Kind: types.KindInt}}
	for i := 0; i < npreds; i++ {
		cols = append(cols, schema.Column{Name: predCol(i), Kind: types.KindFloat})
	}
	tm, _ := cat.CreateTable("T", schema.NewSchema(cols...))
	for i := 0; i < rows; i++ {
		row := []types.Value{types.NewInt(int64(r.Intn(keyspace)))}
		for j := 0; j < npreds; j++ {
			row = append(row, types.NewFloat(r.Float64()))
		}
		tm.Table.MustAppend(row)
	}
	return tm
}

// BenchmarkMuFullDrain: µ over an unranked scan, fully drained (worst
// case: the queue holds the whole relation).
func BenchmarkMuFullDrain(b *testing.B) {
	tm := benchTable(20000, 100, 1)
	spec := tableSpec("T", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := NewContext(spec)
		m, _ := NewRank(NewSeqScan(tm.Table, "T"), spec.Preds[0])
		if _, err := Run(ctx, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(20000, "tuples/op")
}

// BenchmarkMuTopKOverRankScan: the pipelined case the algebra enables —
// µ over a rank-scan, stopping after k. Compare with BenchmarkMuFullDrain
// to see the incremental win.
func BenchmarkMuTopKOverRankScan(b *testing.B) {
	tm := benchTable(20000, 100, 2)
	spec := tableSpec("T", 2)
	ident := func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f }
	if tm.RankIndex("p1", []string{"p1"}) == nil {
		if _, err := tm.CreateRankIndex("p1", []string{"p1"}, ident); err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := NewContext(spec)
				rs, _ := NewRankScan(tm.Table, "T", spec.Preds[0], tm.RankIndex("p1", []string{"p1"}), nil)
				m, _ := NewRank(rs, spec.Preds[1])
				lim := NewLimit(m, k)
				if _, err := Run(ctx, lim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRankJoins: HRJN top-k versus the classic hash join + full sort
// on the same inputs. Each HRJN sub-benchmark reports depth/op, the tuples
// the join pulls from its inputs. In HRJN-skewed-top10 the right input
// also ranks by R.p2 and R.p3, so its first tuple starts further below
// the maxima of what it has evaluated than the left's: the case where
// drawing from the side whose corner term of the threshold is larger
// (HRJN*) reads less than drawing from the side whose last bound is
// larger.
func BenchmarkRankJoins(b *testing.B) {
	lt := benchTable(10000, 500, 1)
	rt := benchTable(10000, 500, 1)
	skewed := benchTable(10000, 500, 3)
	preds := []*rank.Predicate{
		{Index: 0, Args: []rank.ColumnRef{{Table: "L", Column: "p1"}}, Fn: identFn, Cost: 1},
		{Index: 1, Args: []rank.ColumnRef{{Table: "R", Column: "p1"}}, Fn: identFn, Cost: 1},
		{Index: 2, Args: []rank.ColumnRef{{Table: "R", Column: "p2"}}, Fn: identFn, Cost: 1},
		{Index: 3, Args: []rank.ColumnRef{{Table: "R", Column: "p3"}}, Fn: identFn, Cost: 1},
	}
	lk, rk := expr.NewCol("L", "k"), expr.NewCol("R", "k")

	hrjn := func(b *testing.B, right *catalog.TableMeta, rightPreds []*rank.Predicate) {
		spec := rank.MustSpec(rank.NewSum(1+len(rightPreds)), preds[:1+len(rightPreds)])
		var depth int64
		for i := 0; i < b.N; i++ {
			ctx := NewContext(spec)
			l, _ := NewRank(NewSeqScan(lt.Table, "L"), preds[0])
			var r Operator = NewSeqScan(right.Table, "R")
			for _, p := range rightPreds {
				r, _ = NewRank(r, p)
			}
			j, _ := NewHRJN(l, r, lk, rk, nil)
			lim := NewLimit(j, 10)
			if _, err := Run(ctx, lim); err != nil {
				b.Fatal(err)
			}
			depth = l.OutCount() + r.OutCount()
		}
		b.ReportMetric(float64(depth), "depth/op")
	}
	b.Run("HRJN-top10", func(b *testing.B) {
		hrjn(b, rt, preds[1:2])
	})
	b.Run("HRJN-skewed-top10", func(b *testing.B) {
		hrjn(b, skewed, preds[1:])
	})
	b.Run("HashJoin+Sort-top10", func(b *testing.B) {
		spec := rank.MustSpec(rank.NewSum(2), preds[:2])
		for i := 0; i < b.N; i++ {
			ctx := NewContext(spec)
			j, _ := NewHashJoin(NewSeqScan(lt.Table, "L"), NewSeqScan(rt.Table, "R"), lk, rk, nil)
			s := NewSortScore(j)
			lim := NewLimit(s, 10)
			if _, err := Run(ctx, lim); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRankScanAccess: rank-scan via index vs µ over a sequential
// scan, pulling the top 100 of 50k rows.
func BenchmarkRankScanAccess(b *testing.B) {
	tm := benchTable(50000, 100, 1)
	spec := tableSpec("T", 1)
	ident := func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f }
	if _, err := tm.CreateRankIndex("p1", []string{"p1"}, ident); err != nil {
		b.Fatal(err)
	}
	b.Run("idxScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := NewContext(spec)
			rs, _ := NewRankScan(tm.Table, "T", spec.Preds[0], tm.RankIndex("p1", []string{"p1"}), nil)
			if _, err := Run(ctx, NewLimit(rs, 100)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("muOverSeqScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := NewContext(spec)
			m, _ := NewRank(NewSeqScan(tm.Table, "T"), spec.Preds[0])
			if _, err := Run(ctx, NewLimit(m, 100)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMuScheduling quantifies the Figure 6(b)/(c) ablation at scale:
// applying the more selective µ first reduces total work.
func BenchmarkMuScheduling(b *testing.B) {
	// p1 drawn from [0,1]; p2 mostly high (less selective when ranked).
	r := rand.New(rand.NewSource(9))
	cat := catalog.New()
	tm, _ := cat.CreateTable("T", schema.NewSchema(
		schema.Column{Name: "k", Kind: types.KindInt},
		schema.Column{Name: "p1", Kind: types.KindFloat},
		schema.Column{Name: "p2", Kind: types.KindFloat},
	))
	for i := 0; i < 20000; i++ {
		tm.Table.MustAppend([]types.Value{
			types.NewInt(int64(i)),
			types.NewFloat(r.Float64()),
			types.NewFloat(0.8 + 0.2*r.Float64()),
		})
	}
	spec := tableSpec("T", 2)
	ident := func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f }
	if _, err := tm.CreateRankIndex("p1", []string{"p1"}, ident); err != nil {
		b.Fatal(err)
	}
	if _, err := tm.CreateRankIndex("p2", []string{"p2"}, ident); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, scanPred, muPred int) {
		var evals int64
		for i := 0; i < b.N; i++ {
			ctx := NewContext(spec)
			col := predCol(scanPred)
			rs, _ := NewRankScan(tm.Table, "T", spec.Preds[scanPred],
				tm.RankIndex(col, []string{col}), nil)
			m, _ := NewRank(rs, spec.Preds[muPred])
			if _, err := Run(ctx, NewLimit(m, 10)); err != nil {
				b.Fatal(err)
			}
			evals = ctx.Stats.PredEvals
		}
		b.ReportMetric(float64(evals), "predEvals/op")
	}
	b.Run("scan-selective-first", func(b *testing.B) { run(b, 0, 1) })
	b.Run("scan-flat-first", func(b *testing.B) { run(b, 1, 0) })
}
