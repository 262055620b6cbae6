package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ranksql"
	"ranksql/internal/server"
)

// skewQuery ranks skewCluster's one table by its score column.
const skewQuery = `SELECT id, s FROM t ORDER BY ident(s) LIMIT ?`

// skewTopRow outranks every seeded row; tests write it behind the
// router's back, on shard 0, while a merge is in flight.
const skewTopRow = `INSERT INTO t VALUES (999, 1.0)`

// seedSkew registers the ident scorer and writes shard's rows of the
// skewed dataset into db (every shard's rows when shard < 0): shard 0
// holds ids 0..19 scoring 0.99 down to 0.80 — the whole top 20 — and
// shard 1 ids 100..119 scoring 0.50 down to 0.31.
func seedSkew(t *testing.T, db *ranksql.DB, shard int, create bool) {
	t.Helper()
	if err := db.RegisterScorer("ident", func(args []ranksql.Value) float64 { return args[0].Float() }); err != nil {
		t.Fatal(err)
	}
	if create {
		if _, err := db.Exec(`CREATE TABLE t (id INT, s FLOAT)`); err != nil {
			t.Fatal(err)
		}
	}
	for sh, base := range []int{99, 50} {
		if shard >= 0 && shard != sh {
			continue
		}
		var vals []string
		for i := 0; i < 20; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %g)", 100*sh+i, float64(base-i)/100))
		}
		if _, err := db.Exec(`INSERT INTO t VALUES ` + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
}

// skewCluster is a router over two shards holding the skewed dataset, its
// rows written to each shard directly so the test decides where each one
// lands. wrap, when non-nil, sits in front of shard 0's handler.
type skewCluster struct {
	router    *Router
	front     *httptest.Server
	dbs       []*ranksql.DB
	shardURLs []string
}

func newSkewCluster(t *testing.T, serverOpts []server.Option, wrap func(http.Handler) http.Handler) *skewCluster {
	t.Helper()
	c := &skewCluster{}
	for i := 0; i < 2; i++ {
		db := ranksql.Open()
		var h http.Handler = server.New(db, serverOpts...).Handler()
		if i == 0 && wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		c.dbs = append(c.dbs, db)
		c.shardURLs = append(c.shardURLs, ts.URL)
	}
	r, err := New(c.shardURLs)
	if err != nil {
		t.Fatal(err)
	}
	c.router = r
	c.front = httptest.NewServer(r.Handler())
	t.Cleanup(c.front.Close)
	var ex struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, c.front.URL+"/exec", map[string]interface{}{"sql": `CREATE TABLE t (id INT, s FLOAT)`}, &ex); code != http.StatusOK {
		t.Fatalf("create through the router: status %d, error %q", code, ex.Error)
	}
	for i, db := range c.dbs {
		seedSkew(t, db, i, false)
	}
	return c
}

// skewRef is the single-node answer over the skewed dataset, plus extra
// statements applied after seeding.
func skewRef(t *testing.T, k int, extra ...string) *ranksql.Rows {
	t.Helper()
	db := ranksql.Open()
	seedSkew(t, db, -1, true)
	for _, stmt := range extra {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := db.QueryContext(t.Context(), skewQuery, k)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// openSkewCursor opens a k-row-page cursor; its first page drains shard
// 0's first fetch and so refills it with one /cursor/next.
func (c *skewCluster) openSkewCursor(t *testing.T, k int) (int, *testQueryResponse) {
	t.Helper()
	var page testQueryResponse
	code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": skewQuery, "params": []interface{}{k}, "cursor": true, "fetch": k}, &page)
	return code, &page
}

// openShardCursors sums the cursors every shard still holds open.
func (c *skewCluster) openShardCursors(t *testing.T) int {
	t.Helper()
	open := 0
	for _, u := range c.shardURLs {
		var stats struct {
			Cursors struct {
				Open int `json:"open"`
			} `json:"cursors"`
		}
		getInsightJSON(t, u+"/stats", &stats)
		open += stats.Cursors.Open
	}
	return open
}

// failFirst wraps a shard handler so its first request to path answers
// status with body instead of reaching the shard.
func failFirst(path string, status int, body string) func(http.Handler) http.Handler {
	var hit atomic.Bool
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == path && hit.CompareAndSwap(false, true) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(status)
				fmt.Fprint(w, body)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestOneShotRefillUnderInsert: a one-shot's refill of shard 0 races an
// INSERT of a new top row there. The deeper re-run no longer extends the
// prefix already merged, so the router re-runs the query with every shard
// k deep: no row twice, and the answer is the single-node top-k after the
// insert.
func TestOneShotRefillUnderInsert(t *testing.T) {
	const k = 10
	var queries atomic.Int32
	var c *skewCluster
	c = newSkewCluster(t, nil, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query" && queries.Add(1) == 2 {
				if _, err := c.dbs[0].Exec(skewTopRow); err != nil {
					t.Error(err)
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	var got testQueryResponse
	if code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": skewQuery, "params": []interface{}{k}}, &got); code != http.StatusOK {
		t.Fatalf("one-shot: status %d, error %q", code, got.Error)
	}
	if queries.Load() < 2 {
		t.Fatal("shard 0 was never refilled; the insert raced nothing")
	}
	seen := map[string]bool{}
	for _, row := range got.Rows {
		key := renderRow(row)
		if seen[key] {
			t.Fatalf("row %s returned twice: %v", key, got.Rows)
		}
		seen[key] = true
	}
	assertEquivalent(t, "one-shot after the insert", skewRef(t, k+5, skewTopRow), k, &got)
}

// TestRouterCursorShardLostUnderInsert: shard 0 garbage-collects its side
// of a router cursor, then takes a new top row. The re-opened shard
// cursor's prefix no longer extends what was merged, so the page answers
// 409 and the router cursor is gone, rather than repeating a row.
func TestRouterCursorShardLostUnderInsert(t *testing.T) {
	const k = 4
	c := newSkewCluster(t, []server.Option{server.WithSessionTTL(40 * time.Millisecond)}, nil)
	code, first := c.openSkewCursor(t, k)
	if code != http.StatusOK || first.CursorID == "" {
		t.Fatalf("cursor open: status %d, error %q", code, first.Error)
	}
	time.Sleep(120 * time.Millisecond)
	if _, err := c.dbs[0].Exec(skewTopRow); err != nil {
		t.Fatal(err)
	}
	var next testQueryResponse
	code = postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": first.CursorID, "fetch": k}, &next)
	if code != http.StatusConflict {
		t.Fatalf("page after the shard lost its cursor and took a new top row: status %d, rows %v, error %q; want 409",
			code, next.Rows, next.Error)
	}
	if n := c.router.cursors.Len(); n != 0 {
		t.Fatalf("open router cursors after the 409 = %d, want 0", n)
	}
}

// TestRouterCursorNoOrphanAfterShardError: a 503 on shard 0's
// /cursor/next makes the router re-open that shard's cursor; the page is
// still right, and once the router cursor is closed no shard holds one.
func TestRouterCursorNoOrphanAfterShardError(t *testing.T) {
	const k = 4
	c := newSkewCluster(t, nil, failFirst("/cursor/next", http.StatusServiceUnavailable, `{"error": "overloaded"}`))
	code, first := c.openSkewCursor(t, k)
	if code != http.StatusOK || first.CursorID == "" {
		t.Fatalf("cursor open: status %d, error %q", code, first.Error)
	}
	assertEquivalent(t, "page across the 503", skewRef(t, k+5), k, first)
	var closed struct {
		Closed bool `json:"closed"`
	}
	if postJSON(t, c.front.URL+"/cursor/close", map[string]interface{}{"cursor_id": first.CursorID}, &closed); !closed.Closed {
		t.Fatal("router cursor close failed")
	}
	if n := c.openShardCursors(t); n != 0 {
		t.Fatalf("shards hold %d cursors after the router cursor closed, want 0", n)
	}
}
