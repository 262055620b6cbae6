package ranksql_test

import (
	"context"
	"fmt"
	"testing"

	"ranksql"
)

func openHotelDB(t *testing.T) *ranksql.DB {
	t.Helper()
	db := ranksql.Open()
	if err := db.RegisterScorer("cheap", func(args []ranksql.Value) float64 {
		return (200 - args[0].Float()) / 200
	}); err != nil {
		t.Fatal(err)
	}
	mustExecT(t, db, `CREATE TABLE hotel (name TEXT, price FLOAT, stars INT)`)
	for i := 0; i < 50; i++ {
		mustExecT(t, db, fmt.Sprintf(`INSERT INTO hotel VALUES ('h%02d', %d, %d)`, i, 10+i*3, 1+i%5))
	}
	return db
}

func mustExecT(t *testing.T, db *ranksql.DB, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func TestPreparedQueryBindsParams(t *testing.T) {
	db := openHotelDB(t)
	stmt, err := db.Prepare(`SELECT name, price FROM hotel WHERE price < ? ORDER BY cheap(price) LIMIT ?`)
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.NumParams(); got != 2 {
		t.Fatalf("NumParams = %d, want 2", got)
	}

	rows, err := stmt.Query(50.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("got %d rows, want 3", rows.Len())
	}
	// cheap() ranks lowest price first; prices are 10, 13, 16, ...
	want := []string{"h00", "h01", "h02"}
	for i, name := range want {
		if got := rows.At(i)[0].Text(); got != name {
			t.Errorf("row %d = %q, want %q", i, got, name)
		}
	}

	// Rebinding changes results without re-preparing.
	rows, err = stmt.Query(12.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.At(0)[0].Text() != "h00" {
		t.Fatalf("rebind: got %d rows (first %q), want just h00", rows.Len(), rows.At(0)[0].Text())
	}
	// Must match the equivalent ad-hoc query.
	adhoc, err := db.Query(`SELECT name, price FROM hotel WHERE price < 50 ORDER BY cheap(price) LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if adhoc.Len() != 3 {
		t.Fatalf("ad-hoc got %d rows", adhoc.Len())
	}
}

func TestPlanCacheHitsOnRepeatedTemplate(t *testing.T) {
	db := openHotelDB(t)
	stmt, err := db.Prepare(`SELECT name FROM hotel WHERE price < ? ORDER BY cheap(price) LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	before := db.PlanCacheStats()
	r1, err := stmt.Query(100.0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Error("first execution should be a cache miss")
	}
	r2, err := stmt.Query(60.0)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Error("second execution should hit the plan cache")
	}
	after := db.PlanCacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses+1 {
		t.Errorf("cache counters: before=%+v after=%+v", before, after)
	}

	// The same template as ad-hoc SQL (different literal spacing/case)
	// shares the cached plan via normalization.
	r3, err := db.QueryContext(context.Background(), `select name from HOTEL where price < ? order by cheap(price) limit 5`, 80.0)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit {
		t.Error("normalized ad-hoc template should hit the cache")
	}

	// Different k is a different plan identity.
	r4, err := db.QueryContext(context.Background(), `SELECT name FROM hotel WHERE price < ? ORDER BY cheap(price) LIMIT 7`, 80.0)
	if err != nil {
		t.Fatal(err)
	}
	if r4.CacheHit {
		t.Error("different k must not reuse the k=5 plan")
	}
}

func TestLiteralOnlyCachePolicy(t *testing.T) {
	db := openHotelDB(t)

	// A literal-only prepared statement caches on its own handle...
	stmt, err := db.Prepare(`SELECT name FROM hotel WHERE price < 90 ORDER BY cheap(price) LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit || !r2.CacheHit {
		t.Errorf("prepared literal-only: hits = %v, %v; want false, true", r1.CacheHit, r2.CacheHit)
	}
	// ...which DDL invalidates.
	mustExecT(t, db, `CREATE INDEX ON hotel (price)`)
	r3, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Error("DDL must invalidate the per-statement plan slot")
	}

	// Ad-hoc literal-only queries never populate the shared LRU.
	before := db.PlanCacheStats().Entries
	for i := 0; i < 3; i++ {
		r, err := db.Query(`SELECT name FROM hotel WHERE price < 77 ORDER BY cheap(price) LIMIT 4`)
		if err != nil {
			t.Fatal(err)
		}
		if r.CacheHit {
			t.Error("ad-hoc literal-only query must not report a cache hit")
		}
	}
	if after := db.PlanCacheStats().Entries; after != before {
		t.Errorf("ad-hoc literal-only queries grew the shared cache: %d -> %d", before, after)
	}
}

func TestPlanCacheParamValuesDoNotLeakBetweenExecutions(t *testing.T) {
	db := openHotelDB(t)
	stmt, err := db.Prepare(`SELECT name FROM hotel WHERE price < ? ORDER BY cheap(price) LIMIT 20`)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := stmt.Query(20.0) // prices 10, 13, 16, 19 -> 4 rows
	if err != nil {
		t.Fatal(err)
	}
	r2, err := stmt.Query(32.0) // prices 10..31 -> 8 rows
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 4 || r2.Len() != 8 {
		t.Fatalf("got %d and %d rows, want 4 and 8 (cached plan must rebind parameters)", r1.Len(), r2.Len())
	}
	if !r2.CacheHit {
		t.Error("second execution should have hit the cache")
	}
}

func TestDDLInvalidatesPlanCache(t *testing.T) {
	db := openHotelDB(t)
	q := `SELECT name FROM hotel WHERE price < ? ORDER BY cheap(price) LIMIT 5`
	if _, err := db.QueryContext(context.Background(), q, 50.0); err != nil {
		t.Fatal(err)
	}
	r, err := db.QueryContext(context.Background(), q, 50.0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Fatal("repeat should hit")
	}
	mustExecT(t, db, `CREATE INDEX ON hotel (stars)`)
	r, err = db.QueryContext(context.Background(), q, 50.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Error("DDL must invalidate cached plans (schema version bump)")
	}
}

func TestPreparedInsert(t *testing.T) {
	db := openHotelDB(t)
	ins, err := db.Prepare(`INSERT INTO hotel VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.IsQuery() {
		t.Error("INSERT is not a query")
	}
	res, err := ins.Exec("cheapest", 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	rows, err := db.Query(`SELECT name FROM hotel ORDER BY cheap(price) LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.At(0)[0].Text() != "cheapest" {
		t.Errorf("top hotel = %q, want the inserted row", rows.At(0)[0].Text())
	}
}

func TestQueryContextCancellation(t *testing.T) {
	db := openHotelDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, `SELECT name FROM hotel ORDER BY cheap(price) LIMIT 5`)
	if err == nil {
		t.Fatal("cancelled context should fail the query")
	}
}

func TestParameterErrors(t *testing.T) {
	db := openHotelDB(t)
	if _, err := db.Query(`SELECT name FROM hotel WHERE price < ? LIMIT 3`); err == nil {
		t.Error("unbound parameter must error")
	}
	if _, err := db.Exec(`INSERT INTO hotel VALUES (?, 1, 1)`); err == nil {
		t.Error("Exec with placeholders must demand Prepare")
	}
	if _, err := db.Prepare(`SELECT name FROM hotel ORDER BY price * ? LIMIT 3`); err == nil {
		t.Error("parameters in ranking expressions must be rejected")
	}
	stmt, err := db.Prepare(`SELECT name FROM hotel WHERE price < ? LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); err == nil {
		t.Error("missing binding must error")
	}
	if _, err := stmt.Query(1.0, 2.0); err == nil {
		t.Error("excess binding must error")
	}
	if _, err := stmt.Query(struct{}{}); err == nil {
		t.Error("unsupported Go type must error")
	}
	lim, err := db.Prepare(`SELECT name FROM hotel ORDER BY cheap(price) LIMIT ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lim.Query(0); err == nil {
		t.Error("LIMIT ? bound to 0 must be rejected (0 means 'no limit' internally)")
	}
}

func TestPlanCacheStaleRecompile(t *testing.T) {
	db := openHotelDB(t) // 50 rows
	stmt, err := db.Prepare(`SELECT name FROM hotel WHERE price < ? ORDER BY cheap(price) LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := stmt.Query(100.0); err != nil {
		t.Fatal(err)
	} else if r.CacheHit {
		t.Fatal("first execution should miss")
	}
	if r, err := stmt.Query(100.0); err != nil {
		t.Fatal(err)
	} else if !r.CacheHit {
		t.Fatal("second execution should hit")
	}

	// Grow the table past twice the row count the plan's snapshot was
	// drawn at: 50 -> 110 rows. INSERT does not bump the schema version,
	// so only the snapshot's growth check can catch this.
	for i := 0; i < 60; i++ {
		mustExecT(t, db, fmt.Sprintf(`INSERT INTO hotel VALUES ('g%02d', %d, %d)`, i, 20+i*2, 1+i%5))
	}
	before := db.PlanCacheStats()
	r, err := stmt.Query(100.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Error("execution after 2.2x growth must recompile, not reuse the stale plan")
	}
	after := db.PlanCacheStats()
	if after.StaleRecompiles != before.StaleRecompiles+1 {
		t.Errorf("StaleRecompiles = %d, want %d", after.StaleRecompiles, before.StaleRecompiles+1)
	}

	// The recompiled plan (costed against 110 rows) is cached in turn.
	if r, err := stmt.Query(100.0); err != nil {
		t.Fatal(err)
	} else if !r.CacheHit {
		t.Error("recompiled plan should be cached and hit")
	}

	// Growth up to the factor does not invalidate.
	for i := 0; i < 50; i++ {
		mustExecT(t, db, fmt.Sprintf(`INSERT INTO hotel VALUES ('s%02d', %d, %d)`, i, 20+i*2, 1+i%5))
	}
	if r, err := stmt.Query(100.0); err != nil {
		t.Fatal(err)
	} else if !r.CacheHit {
		t.Error("160 rows < 2*110: plan must still be considered fresh")
	}
}
