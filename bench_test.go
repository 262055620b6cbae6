package ranksql

import (
	"fmt"
	"testing"

	"ranksql/internal/types"
)

// benchDB builds a small webshop-shaped database: enough rows that the
// rank-aware operators do real work, small enough that the benchmark
// numbers are dominated by per-request overhead (the thing the pooled
// serve path optimizes), not by data volume.
func benchDB(tb testing.TB, rows int) *DB {
	tb.Helper()
	db := Open()
	mustExec := func(sql string) {
		tb.Helper()
		if _, err := db.Exec(sql); err != nil {
			tb.Fatalf("%s: %v", sql, err)
		}
	}
	reg := func(name string, fn ScoreFunc) {
		tb.Helper()
		if err := db.RegisterScorer(name, fn, WithCost(1), WithMax(1)); err != nil {
			tb.Fatal(err)
		}
	}
	reg("rating", func(args []Value) float64 { return args[0].Float() / 5 })
	reg("popular", func(args []Value) float64 { return args[0].Float() / 100000 })
	reg("bargain", func(args []Value) float64 { return (500 - args[0].Float()) / 500 })
	mustExec(`CREATE TABLE product (name TEXT, price FLOAT, stars FLOAT, sales INT, in_stock BOOL)`)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng%10000) / 10000
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(fmt.Sprintf(
			`INSERT INTO product VALUES ('p%d', %.2f, %.2f, %d, %v)`,
			i, 5+next()*495, 1+4*next(), int(next()*100000), next() < 0.9)); err != nil {
			tb.Fatal(err)
		}
	}
	mustExec(`CREATE RANK INDEX ON product (rating(stars))`)
	mustExec(`CREATE RANK INDEX ON product (popular(sales))`)
	mustExec(`CREATE RANK INDEX ON product (bargain(price))`)
	return db
}

const benchTemplate = `SELECT name, price, stars, sales FROM product
	WHERE in_stock AND price < ?
	ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?`

// benchArgs bind benchTemplate: price < 400, LIMIT 10.
var benchArgs = []interface{}{400.0, 10}

// BenchmarkTemplateHit measures the template-hit serve path through the
// public API: the plan is cached, so each iteration pays only argument
// conversion, the pooled instance's rebind, execution (scorers called
// through RegisterScorer's adapter) and result materialization.
func BenchmarkTemplateHit(b *testing.B) {
	db := benchDB(b, 1000)
	db.SetProfileSampling(0) // steady-state: no sampled profiling
	st, err := db.Prepare(benchTemplate)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Query(benchArgs...); err != nil {
		b.Fatal(err) // warm the plan cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := st.Query(benchArgs...)
		if err != nil {
			b.Fatal(err)
		}
		if rows.Len() == 0 || !rows.CacheHit {
			b.Fatalf("rows=%d cacheHit=%v, want cached non-empty result", rows.Len(), rows.CacheHit)
		}
	}
}

// setOpTemplate is a UNION template over routeDB's item and item2;
// setOpArgs bind it: a >= 0.2, LIMIT 10.
const setOpTemplate = `SELECT id, a, b FROM item WHERE a >= ? UNION SELECT id, a, b FROM item2
	ORDER BY sa(a) + sb(b) LIMIT ?`

var setOpArgs = []interface{}{0.2, 10}

// BenchmarkSetOpTemplateHit is BenchmarkTemplateHit for a set operation:
// the UNION's plan is cached like a SELECT's, so each iteration runs a
// pooled instance of it.
func BenchmarkSetOpTemplateHit(b *testing.B) {
	db := routeDB(b)
	db.SetProfileSampling(0)
	st, err := db.Prepare(setOpTemplate)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Query(setOpArgs...); err != nil {
		b.Fatal(err) // warm the plan cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := st.Query(setOpArgs...)
		if err != nil {
			b.Fatal(err)
		}
		if rows.Len() == 0 || !rows.CacheHit {
			b.Fatalf("rows=%d cacheHit=%v, want cached non-empty result", rows.Len(), rows.CacheHit)
		}
	}
}

// BenchmarkRebind isolates the rebind step: what it costs to turn a
// cached plan plus fresh parameter values into a runnable operator tree,
// without executing it.
func BenchmarkRebind(b *testing.B) {
	db := benchDB(b, 100)
	cp, params := cachedBenchPlan(b, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := cp.acquireInstance()
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.bind(params); err != nil {
			b.Fatal(err)
		}
		inst.release()
	}
}

// cachedBenchPlan runs benchTemplate once through the public API and
// returns its cached plan with the bound values, for the rebind step.
func cachedBenchPlan(tb testing.TB, db *DB) (*compiledPlan, []types.Value) {
	tb.Helper()
	db.SetProfileSampling(0)
	st, err := db.Prepare(benchTemplate)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Query(benchArgs...); err != nil {
		tb.Fatal(err)
	}
	db.mu.RLock()
	cp, _ := db.plans.Get(planKey{norm: st.norm, k: 10, version: db.version}, nil)
	db.mu.RUnlock()
	if cp == nil {
		tb.Fatal("plan not cached")
	}
	params, err := appendValues(nil, benchArgs)
	if err != nil {
		tb.Fatal(err)
	}
	return cp, params
}
