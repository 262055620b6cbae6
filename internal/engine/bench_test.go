package engine

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
	db := New()
	mustExec := func(sql string) {
		tb.Helper()
		if _, err := db.Exec(sql); err != nil {
			tb.Fatalf("%s: %v", sql, err)
		}
	}
	reg := func(name string, fn func(args []types.Value) float64) {
		tb.Helper()
		if err := db.RegisterScorer(name, Scorer{Fn: fn, Cost: 1, MaxVal: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	reg("rating", func(args []types.Value) float64 {
		f, _ := args[0].AsFloat()
		return f / 5
	})
	reg("popular", func(args []types.Value) float64 {
		f, _ := args[0].AsFloat()
		return f / 100000
	})
	reg("bargain", func(args []types.Value) float64 {
		f, _ := args[0].AsFloat()
		return (500 - f) / 500
	})
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

// BenchmarkTemplateHit measures the engine's template-hit serve path:
// the plan is cached, so each iteration pays only the pooled instance's
// rebind, execution and result materialization.
func BenchmarkTemplateHit(b *testing.B) {
	db := benchDB(b, 1000)
	db.ProfileEvery = 0 // steady-state: no sampled profiling
	st, err := db.Prepare(benchTemplate)
	if err != nil {
		b.Fatal(err)
	}
	params := []types.Value{types.NewFloat(400), types.NewInt(10)}
	if _, err := st.Query(params); err != nil {
		b.Fatal(err) // warm the plan cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := st.Query(params)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows.Data) == 0 || !rows.CacheHit {
			b.Fatalf("rows=%d cacheHit=%v, want cached non-empty result", len(rows.Data), rows.CacheHit)
		}
	}
}

// BenchmarkRebind isolates the rebind step: what it costs to turn a
// cached plan plus fresh parameter values into a runnable operator tree,
// without executing it.
func BenchmarkRebind(b *testing.B) {
	db := benchDB(b, 100)
	db.ProfileEvery = 0
	st, err := db.Prepare(benchTemplate)
	if err != nil {
		b.Fatal(err)
	}
	params := []types.Value{types.NewFloat(400), types.NewInt(10)}
	if _, err := st.Query(params); err != nil {
		b.Fatal(err)
	}
	db.mu.RLock()
	cp, _ := db.Plans.Get(planKey{norm: st.norm, k: 10, version: db.version}, nil)
	db.mu.RUnlock()
	if cp == nil {
		b.Fatal("plan not cached")
	}
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
