package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

	mu    sync.Mutex
	calls map[string]int // "shard path" → requests that shard received
}

// sent reports how many requests for path shard has received.
func (c *skewCluster) sent(shard int, path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[fmt.Sprintf("%d %s", shard, path)]
}

func newSkewCluster(t *testing.T, serverOpts []server.Option, wrap func(http.Handler) http.Handler) *skewCluster {
	t.Helper()
	c := &skewCluster{calls: map[string]int{}}
	for i := 0; i < 2; i++ {
		db := ranksql.Open()
		var h http.Handler = server.New(db, serverOpts...).Handler()
		if i == 0 && wrap != nil {
			h = wrap(h)
		}
		key := fmt.Sprintf("%d ", i)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			c.mu.Lock()
			c.calls[key+r.URL.Path]++
			c.mu.Unlock()
			h.ServeHTTP(w, r)
		}))
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

// openSkewCursor opens a k-row-page cursor: one round, k rows from each
// shard, and page one is shard 0's whole first fetch.
func (c *skewCluster) openSkewCursor(t *testing.T, k int) (int, *testQueryResponse) {
	t.Helper()
	var page testQueryResponse
	code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": skewQuery, "params": []interface{}{k}, "cursor": true, "fetch": k}, &page)
	return code, &page
}

// secondSkewPage opens a k-row-page cursor and pulls its second page, which
// refills shard 0 with one /cursor/next. It returns page one and the
// second page's status, plus both pages as one answer when that is 200.
func (c *skewCluster) secondSkewPage(t *testing.T, k int) (*testQueryResponse, int, *testQueryResponse) {
	t.Helper()
	code, first := c.openSkewCursor(t, k)
	if code != http.StatusOK || first.CursorID == "" {
		t.Fatalf("cursor open: status %d, error %q", code, first.Error)
	}
	var next testQueryResponse
	code = postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": first.CursorID, "fetch": k}, &next)
	both := &testQueryResponse{Error: next.Error,
		Rows: append(first.Rows, next.Rows...), Scores: append(first.Scores, next.Scores...)}
	return first, code, both
}

// shardCursors sums, over every shard's /stats, the cursors still open
// and the /cursor/next pulls that found one.
func (c *skewCluster) shardCursors(t *testing.T) (open int, hits uint64) {
	t.Helper()
	for _, u := range c.shardURLs {
		var stats struct {
			Cursors struct {
				Open int    `json:"open"`
				Hits uint64 `json:"hits"`
			} `json:"cursors"`
		}
		getInsightJSON(t, u+"/stats", &stats)
		open += stats.Cursors.Open
		hits += stats.Cursors.Hits
	}
	return open, hits
}

// assertOneRound checks that every shard received exactly one /query and
// no /cursor/next: the first page cost one parallel round.
func (c *skewCluster) assertOneRound(t *testing.T, label string) {
	t.Helper()
	for i := range c.shardURLs {
		if q, n := c.sent(i, "/query"), c.sent(i, "/cursor/next"); q != 1 || n != 0 {
			t.Errorf("%s: shard %d received %d /query and %d /cursor/next, want 1 and 0", label, i, q, n)
		}
	}
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

// TestOneShotIsOneRound: a one-shot asks every shard for k rows at once.
// Shard 0 holds the whole top 10, and its k-deep first fetch covers it:
// one /query per shard, no refill, and the single-node answer.
func TestOneShotIsOneRound(t *testing.T) {
	const k = 10
	c := newSkewCluster(t, nil, nil)
	var got testQueryResponse
	if code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": skewQuery, "params": []interface{}{k}}, &got); code != http.StatusOK {
		t.Fatalf("one-shot: status %d, error %q", code, got.Error)
	}
	assertEquivalent(t, "one-shot", skewRef(t, k+5), k, &got)
	c.assertOneRound(t, "one-shot")
	if got.Merge.Refills != 0 {
		t.Errorf("one-shot merge.refills = %d, want 0", got.Merge.Refills)
	}
}

// TestCursorOpenIsOneRound is the cursor twin: a cursor open with fetch 4
// sends each shard one /query (its cursor open, 4 rows deep) and no
// /cursor/next.
func TestCursorOpenIsOneRound(t *testing.T) {
	const k = 4
	c := newSkewCluster(t, nil, nil)
	code, first := c.openSkewCursor(t, k)
	if code != http.StatusOK || first.CursorID == "" {
		t.Fatalf("cursor open: status %d, error %q", code, first.Error)
	}
	assertEquivalent(t, "cursor page one", skewRef(t, k+5), k, first)
	c.assertOneRound(t, "cursor open")
}

// TestAfterRankRefillsCounted: the refills an after_rank fast-forward makes
// count toward its page, so the router's refills_total equals the
// /cursor/next pulls the shards served.
func TestAfterRankRefillsCounted(t *testing.T) {
	const k = 4
	c := newSkewCluster(t, nil, nil)
	code, first := c.openSkewCursor(t, k)
	if code != http.StatusOK || first.CursorID == "" {
		t.Fatalf("cursor open: status %d, error %q", code, first.Error)
	}
	var jump testQueryResponse
	if code := postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": first.CursorID, "after_rank": 12}, &jump); code != http.StatusOK || len(jump.Ranks) != k || jump.Ranks[0] != 13 {
		t.Fatalf("after_rank=12: status %d, error %q, ranks %v; want ranks 13..16", code, jump.Error, jump.Ranks)
	}
	_, hits := c.shardCursors(t)
	var snap Snapshot
	getInsightJSON(t, c.front.URL+"/stats", &snap)
	if hits == 0 || snap.RefillsTotal != hits || uint64(jump.Merge.Refills) != hits {
		t.Errorf("refills_total %d, page merge.refills %d; the shards served %d /cursor/next pulls",
			snap.RefillsTotal, jump.Merge.Refills, hits)
	}
	var perQuery uint64
	for _, q := range snap.PerQuery {
		perQuery += q.Refills
	}
	if perQuery != hits {
		t.Errorf("per_query refills sum to %d, want %d", perQuery, hits)
	}
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
	first, code, both := c.secondSkewPage(t, k)
	if code != http.StatusOK {
		t.Fatalf("page across the 503: status %d, error %q", code, both.Error)
	}
	assertEquivalent(t, "pages across the 503", skewRef(t, 2*k+5), 2*k, both)
	var closed struct {
		Closed bool `json:"closed"`
	}
	if postJSON(t, c.front.URL+"/cursor/close", map[string]interface{}{"cursor_id": first.CursorID}, &closed); !closed.Closed {
		t.Fatal("router cursor close failed")
	}
	if n, _ := c.shardCursors(t); n != 0 {
		t.Fatalf("shards hold %d cursors after the router cursor closed, want 0", n)
	}
}
