package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ranksql"
	"ranksql/internal/server"
)

// cursorCluster is a cluster variant for cursor tests: it keeps the
// shard base URLs (for shard-side /stats assertions) and accepts
// options on both the shard servers and the router.
type cursorCluster struct {
	router    *Router
	front     *httptest.Server
	shardURLs []string
}

func newCursorCluster(t *testing.T, n int, serverOpts []server.Option, routerOpts []Option) *cursorCluster {
	t.Helper()
	c := &cursorCluster{}
	for i := 0; i < n; i++ {
		db := ranksql.Open()
		if err := server.RegisterWebshopScorers(db); err != nil {
			t.Fatal(err)
		}
		s := server.New(db, serverOpts...)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		c.shardURLs = append(c.shardURLs, ts.URL)
	}
	r, err := New(c.shardURLs, routerOpts...)
	if err != nil {
		t.Fatal(err)
	}
	c.router = r
	c.front = httptest.NewServer(r.Handler())
	t.Cleanup(c.front.Close)
	return c
}

const cursorTestQuery = `SELECT name, price, stars, sales FROM product
	WHERE in_stock AND price < ?
	ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?`

// openRouterCursor opens a ranked cursor through the router and returns
// the first page.
func openRouterCursor(t *testing.T, front string, bound float64, k int) *testQueryResponse {
	t.Helper()
	var page testQueryResponse
	postJSON(t, front+"/query", map[string]interface{}{
		"sql": cursorTestQuery, "params": []interface{}{bound, k},
		"cursor": true, "fetch": k,
	}, &page)
	if page.Error != "" {
		t.Fatalf("cursor open: %s", page.Error)
	}
	if page.CursorID == "" {
		t.Fatal("cursor open returned no cursor_id")
	}
	return &page
}

// paginateRouterCursor pulls pages of k until the merged stream is
// exhausted (or maxRows is reached, when > 0), verifying offsets and
// contiguous 1-based ranks along the way, and returns the concatenation
// as one response suitable for assertEquivalent.
func paginateRouterCursor(t *testing.T, front string, first *testQueryResponse, k, maxRows int) *testQueryResponse {
	t.Helper()
	combined := &testQueryResponse{CursorID: first.CursorID}
	page := first
	for pull := 0; ; pull++ {
		if pull > 10000 {
			t.Fatal("router cursor never exhausted")
		}
		if len(page.Rows) > k {
			t.Fatalf("pull %d returned %d rows, want <= %d", pull, len(page.Rows), k)
		}
		if page.Offset != len(combined.Rows) {
			t.Fatalf("pull %d offset = %d, want %d", pull, page.Offset, len(combined.Rows))
		}
		for i, r := range page.Ranks {
			if r != page.Offset+i+1 {
				t.Fatalf("pull %d ranks = %v, want contiguous from %d", pull, page.Ranks, page.Offset+1)
			}
		}
		combined.Rows = append(combined.Rows, page.Rows...)
		combined.Scores = append(combined.Scores, page.Scores...)
		combined.Ranks = append(combined.Ranks, page.Ranks...)
		combined.Stats = page.Stats // cumulative over the cursor's life
		if page.Exhausted || (maxRows > 0 && len(combined.Rows) >= maxRows) {
			combined.Exhausted = page.Exhausted
			break
		}
		if len(page.Rows) < k {
			t.Fatalf("short pull %d (%d rows) not marked exhausted", pull, len(page.Rows))
		}
		var next testQueryResponse
		postJSON(t, front+"/cursor/next", map[string]interface{}{
			"cursor_id": first.CursorID, "fetch": k}, &next)
		if next.Error != "" {
			t.Fatalf("pull %d: %s", pull+1, next.Error)
		}
		page = &next
	}
	combined.K = len(combined.Rows)
	combined.Depth = len(combined.Rows)
	return combined
}

// TestRouterCursorPaginationEquivalence is the sharded half of the
// pagination property: pulling pages of k through the router until
// exhaustion must equal the single-node ranking over the whole dataset,
// with contiguous global ranks across pages.
func TestRouterCursorPaginationEquivalence(t *testing.T) {
	const rows = 600
	single := ranksql.Open()
	if err := server.SeedWebshop(single, rows); err != nil {
		t.Fatal(err)
	}
	c := newCursorCluster(t, 3, nil, nil)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}

	ref, err := single.QueryContext(t.Context(), cursorTestQuery, 300, rows)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{3, 10} {
		first := openRouterCursor(t, c.front.URL, 300, k)
		combined := paginateRouterCursor(t, c.front.URL, first, k, 0)
		if len(combined.Rows) != ref.Len() {
			t.Fatalf("k=%d: pagination drained %d rows, single-node has %d", k, len(combined.Rows), ref.Len())
		}
		assertEquivalent(t, fmt.Sprintf("k=%d", k), ref, ref.Len(), combined)
	}

	// Satellite contract: plain (non-cursor) /query responses carry the
	// same 1-based total-order ranks.
	var plain testQueryResponse
	postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": cursorTestQuery, "params": []interface{}{300, 5}}, &plain)
	if plain.Error != "" || len(plain.Ranks) != len(plain.Rows) {
		t.Fatalf("plain query ranks = %v over %d rows (err %q)", plain.Ranks, len(plain.Rows), plain.Error)
	}
	for i, r := range plain.Ranks {
		if r != i+1 {
			t.Fatalf("plain query ranks = %v, want 1..%d", plain.Ranks, len(plain.Rows))
		}
	}
}

// TestRouterCursorPagesMatchOneDeepRun pins the ISSUE acceptance
// criterion directly: ten pages of k equal the first 10*k rows of one
// top-(10*k) run.
func TestRouterCursorPagesMatchOneDeepRun(t *testing.T) {
	const rows, k, pages = 600, 10, 10
	single := ranksql.Open()
	if err := server.SeedWebshop(single, rows); err != nil {
		t.Fatal(err)
	}
	c := newCursorCluster(t, 4, nil, nil)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}
	// Deep reference past the boundary tie group.
	ref, err := single.QueryContext(t.Context(), cursorTestQuery, 300, pages*k+100)
	if err != nil {
		t.Fatal(err)
	}
	first := openRouterCursor(t, c.front.URL, 300, k)
	combined := paginateRouterCursor(t, c.front.URL, first, k, pages*k)
	combined.Exhausted = true // only paginated a prefix; satisfy the helper's contract check
	assertEquivalent(t, "10 pages of 10", ref, len(combined.Rows), combined)
	// Resumable means paging through the router costs about what one
	// single-node run to the same depth costs, with slack for per-shard
	// overfetch, and not a re-enumeration per page.
	deep, err := single.QueryContext(t.Context(), cursorTestQuery, 300, pages*k)
	if err != nil {
		t.Fatal(err)
	}
	got, limit := combined.Stats.TuplesScanned, deep.Stats.TuplesScanned*15/10
	if got <= 0 || got > limit {
		t.Errorf("paging scanned %d tuples across the shards, one single-node deep run %d (want 0 < n <= 1.5x = %d)",
			got, deep.Stats.TuplesScanned, limit)
	}
}

// TestRouterCursorShardLostFallback pins the degraded path: when a
// shard garbage-collects its side of the cursor mid-pagination, the
// router falls back to re-execution and later pages stay correct.
func TestRouterCursorShardLostFallback(t *testing.T) {
	const rows, k = 400, 8
	single := ranksql.Open()
	if err := server.SeedWebshop(single, rows); err != nil {
		t.Fatal(err)
	}
	// Aggressively short shard TTL: shard-side cursors (and sessions)
	// expire while the router cursor stays alive.
	c := newCursorCluster(t, 3, []server.Option{server.WithSessionTTL(40 * time.Millisecond)}, nil)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}
	ref, err := single.QueryContext(t.Context(), cursorTestQuery, 300, rows)
	if err != nil {
		t.Fatal(err)
	}

	first := openRouterCursor(t, c.front.URL, 300, k)
	// Let every shard's idle GC reap the suspended cursors.
	time.Sleep(120 * time.Millisecond)
	combined := paginateRouterCursor(t, c.front.URL, first, k, 0)
	if len(combined.Rows) != ref.Len() {
		t.Fatalf("pagination drained %d rows, single-node has %d", len(combined.Rows), ref.Len())
	}
	assertEquivalent(t, "shard-lost fallback", ref, ref.Len(), combined)

	// At least one shard must actually have reported the cursor gone
	// (otherwise this test exercised nothing).
	misses := uint64(0)
	for _, u := range c.shardURLs {
		var stats struct {
			Cursors struct {
				Misses uint64 `json:"misses"`
			} `json:"cursors"`
		}
		resp, err := http.Get(u + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		misses += stats.Cursors.Misses
	}
	if misses == 0 {
		t.Error("no shard reported a cursor miss; the fallback path was never taken")
	}
}

// TestRouterCursorExpiry pins the router-side TTL GC: an expired cursor
// pull fails with a clean "expired" 404 (distinct from never-existed
// ids) and /stats accounts for the collection.
func TestRouterCursorExpiry(t *testing.T) {
	c := newCursorCluster(t, 2, nil, []Option{WithCursorTTL(time.Minute)})
	if err := SeedVia(nil, c.front.URL, "webshop", 200); err != nil {
		t.Fatal(err)
	}

	first := openRouterCursor(t, c.front.URL, 300, 5)
	if got := c.router.cursors.Len(); got != 1 {
		t.Fatalf("open cursors = %d, want 1", got)
	}

	// Force the GC with a clock past the TTL (no real sleeps).
	c.router.cursors.Sweep(time.Now().Add(2 * time.Minute))
	if got := c.router.cursors.Len(); got != 0 {
		t.Fatalf("open cursors after sweep = %d, want 0", got)
	}

	var next testQueryResponse
	code := postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": first.CursorID, "fetch": 5}, &next)
	if code != http.StatusNotFound {
		t.Errorf("expired-cursor pull: status %d, want 404", code)
	}
	if !strings.Contains(next.Error, "expired") {
		t.Errorf("expired-cursor error %q should say the cursor expired", next.Error)
	}
	// /cursor/close consults the same tombstones: one lookup, one error.
	var closed testQueryResponse
	code = postJSON(t, c.front.URL+"/cursor/close", map[string]interface{}{
		"cursor_id": first.CursorID}, &closed)
	if code != http.StatusNotFound || closed.Error != next.Error {
		t.Errorf("expired-cursor close: status %d, error %q; want 404 and the pull's error %q", code, closed.Error, next.Error)
	}
	var bogus testQueryResponse
	postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": "rcur-bogus", "fetch": 5}, &bogus)
	if bogus.Error == "" || strings.Contains(bogus.Error, "expired") {
		t.Errorf("unknown-cursor error %q should not claim expiry", bogus.Error)
	}

	var stats struct {
		Cursors struct {
			Open    int    `json:"open"`
			Opened  uint64 `json:"opened_total"`
			Expired uint64 `json:"expired_total"`
			Hits    uint64 `json:"hits_total"`
			Misses  uint64 `json:"misses_total"`
		} `json:"cursors"`
	}
	resp, err := http.Get(c.front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cursors.Open != 0 || stats.Cursors.Opened != 1 || stats.Cursors.Expired != 1 {
		t.Errorf("cursor stats = %+v, want open=0 opened=1 expired=1", stats.Cursors)
	}
	if stats.Cursors.Misses != 2 {
		t.Errorf("cursor misses = %d, want 2 (expired + bogus)", stats.Cursors.Misses)
	}
}

// TestRouterCursorAfterRank pins fast-forward and the rewind error on
// the merged stream.
func TestRouterCursorAfterRank(t *testing.T) {
	const rows, k = 400, 5
	single := ranksql.Open()
	if err := server.SeedWebshop(single, rows); err != nil {
		t.Fatal(err)
	}
	c := newCursorCluster(t, 3, nil, nil)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}
	ref, err := single.QueryContext(t.Context(), cursorTestQuery, 300, 60)
	if err != nil {
		t.Fatal(err)
	}

	first := openRouterCursor(t, c.front.URL, 300, k) // ranks 1..5

	var jump testQueryResponse
	postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": first.CursorID, "fetch": k, "after_rank": 20}, &jump)
	if jump.Error != "" {
		t.Fatalf("after_rank=20: %s", jump.Error)
	}
	if len(jump.Ranks) != k || jump.Ranks[0] != 21 {
		t.Fatalf("after_rank=20 page starts at %v, want rank 21", jump.Ranks)
	}
	for i, s := range jump.Scores {
		if d := s - ref.Scores[20+i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("rank %d score %.12f, single-node has %.12f", 21+i, s, ref.Scores[20+i])
		}
	}

	var back testQueryResponse
	code := postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": first.CursorID, "fetch": k, "after_rank": 10}, &back)
	if code != http.StatusBadRequest || !strings.Contains(back.Error, "rewind") {
		t.Fatalf("rewind: status %d, error %q; want 400 mentioning rewind", code, back.Error)
	}
}

// TestRouterCursorInvalidation pins the schema-change story: DDL fanned
// out mid-pagination invalidates the shard snapshots, the next pull is
// a 409, and the router cursor is gone (re-execution against different
// data must never silently continue the stream).
func TestRouterCursorInvalidation(t *testing.T) {
	c := newCursorCluster(t, 3, nil, nil)
	if err := SeedVia(nil, c.front.URL, "webshop", 300); err != nil {
		t.Fatal(err)
	}
	first := openRouterCursor(t, c.front.URL, 300, 5)

	var ddl struct {
		Error string `json:"error"`
	}
	postJSON(t, c.front.URL+"/exec", map[string]interface{}{
		"sql": `CREATE TABLE unrelated (x INT)`}, &ddl)
	if ddl.Error != "" {
		t.Fatalf("ddl: %s", ddl.Error)
	}

	var next testQueryResponse
	code := postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": first.CursorID, "fetch": 5}, &next)
	if code != http.StatusConflict || !strings.Contains(next.Error, "invalidated") {
		t.Fatalf("pull after DDL: status %d, error %q; want 409 mentioning invalidation", code, next.Error)
	}
	if got := c.router.cursors.Len(); got != 0 {
		t.Fatalf("open cursors after invalidation = %d, want 0", got)
	}
	var again testQueryResponse
	if code := postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": first.CursorID, "fetch": 5}, &again); code != http.StatusNotFound {
		t.Fatalf("pull after teardown: status %d, want 404", code)
	}
}

// TestRouterConcurrentCursorPagination paginates several independent
// cursors concurrently over one cluster (exercised under -race in CI):
// every session must independently reproduce the single-node ranking.
func TestRouterConcurrentCursorPagination(t *testing.T) {
	const rows, k, sessions = 400, 6, 6
	single := ranksql.Open()
	if err := server.SeedWebshop(single, rows); err != nil {
		t.Fatal(err)
	}
	c := newCursorCluster(t, 3, nil, []Option{WithCursorTTL(time.Minute)})
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}
	ref, err := single.QueryContext(t.Context(), cursorTestQuery, 300, rows)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			first := openRouterCursor(t, c.front.URL, 300, k)
			combined := paginateRouterCursor(t, c.front.URL, first, k, 0)
			if len(combined.Rows) != ref.Len() {
				t.Errorf("session %d drained %d rows, single-node has %d", g, len(combined.Rows), ref.Len())
				return
			}
			assertEquivalent(t, fmt.Sprintf("session %d", g), ref, ref.Len(), combined)
			var closed struct {
				Closed bool   `json:"closed"`
				Error  string `json:"error"`
			}
			postJSON(t, c.front.URL+"/cursor/close", map[string]interface{}{
				"cursor_id": first.CursorID}, &closed)
			if !closed.Closed {
				t.Errorf("session %d close: %+v", g, closed)
			}
		}(g)
	}
	wg.Wait()
}

// lateCtx is a context whose deadline has passed but whose Done channel
// closes only when done does, as a timer-backed context's may lag its
// deadline by a moment.
type lateCtx struct {
	context.Context
	done chan struct{}
}

func (c lateCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }
func (c lateCtx) Done() <-chan struct{}       { return c.done }
func (c lateCtx) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestFetchPastDeadlineFails: a stream pull whose deadline has passed
// fails with the context's error even before the context reports it,
// instead of returning an empty prefix and no error (which the merge
// would report as a shrunken stream, a 502, rather than a 504).
func TestFetchPastDeadlineFails(t *testing.T) {
	done := make(chan struct{})
	time.AfterFunc(5*time.Millisecond, func() { close(done) })
	s := &cursorStream{ctx: lateCtx{Context: context.Background(), done: done}}
	if _, _, _, err := s.Fetch(4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Fetch past the deadline: err %v, want context.DeadlineExceeded", err)
	}
}
