package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ranksql"
)

// cursorResponse is the wire shape of cursor pages (a queryResponse
// with the pagination fields).
type cursorResponse struct {
	Columns   []string        `json:"columns"`
	Rows      [][]interface{} `json:"rows"`
	Scores    []float64       `json:"scores"`
	Ranks     []int           `json:"ranks"`
	CacheHit  bool            `json:"cache_hit"`
	Offset    int             `json:"offset"`
	Exhausted bool            `json:"exhausted"`
	CursorID  string          `json:"cursor_id"`
	Stats     struct {
		TuplesScanned int64 `json:"tuples_scanned"`
	} `json:"stats"`
	Error string `json:"error"`
}

// newCursorServer builds a webshop server with cursor/session TTL and
// keeps the DB handle for single-shot reference queries.
func newCursorServer(t *testing.T, rows int, ttl time.Duration) (*ranksql.DB, *Server, *httptest.Server) {
	t.Helper()
	db := ranksql.Open()
	if err := SeedWebshop(db, rows); err != nil {
		t.Fatal(err)
	}
	var opts []Option
	if ttl > 0 {
		opts = append(opts, WithSessionTTL(ttl))
	}
	s := New(db, opts...)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return db, s, ts
}

// openCursor opens a ranked cursor over testQuerySQL and returns the
// first page.
func openCursor(t *testing.T, url string, bound float64, k int) *cursorResponse {
	t.Helper()
	var page cursorResponse
	postJSON(t, url+"/query", map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{bound, k},
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

// TestCursorPaginationMatchesOneShot is the single-node half of the
// pagination property over the wire: pages of k pulled through
// /cursor/next, concatenated, must equal one deep top-(pages*k) run —
// same scores, contiguous 1-based ranks, cumulative stats.
func TestCursorPaginationMatchesOneShot(t *testing.T) {
	db, _, ts := newCursorServer(t, 400, 0)
	const bound, k, pages = 300.0, 7, 6

	ref, err := db.QueryContext(t.Context(), testQuerySQL, bound, pages*k)
	if err != nil {
		t.Fatal(err)
	}

	page := openCursor(t, ts.URL, bound, k)
	var rows [][]interface{}
	var scores []float64
	var ranks []int
	var lastScanned int64
	for pull := 0; ; pull++ {
		if pull > 1000 {
			t.Fatal("cursor never exhausted")
		}
		if len(page.Rows) > k {
			t.Fatalf("pull %d returned %d rows, want <= %d", pull, len(page.Rows), k)
		}
		if page.Offset != len(rows) {
			t.Fatalf("pull %d offset = %d, want %d", pull, page.Offset, len(rows))
		}
		rows = append(rows, page.Rows...)
		scores = append(scores, page.Scores...)
		ranks = append(ranks, page.Ranks...)
		// Cursor stats are cumulative: the whole enumeration so far.
		if page.Stats.TuplesScanned < lastScanned {
			t.Fatalf("pull %d tuples_scanned %d shrank below %d", pull, page.Stats.TuplesScanned, lastScanned)
		}
		lastScanned = page.Stats.TuplesScanned
		if page.Exhausted || len(rows) >= pages*k {
			break
		}
		var next cursorResponse
		postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
			"cursor_id": page.CursorID, "fetch": k}, &next)
		if next.Error != "" {
			t.Fatalf("pull %d: %s", pull+1, next.Error)
		}
		page = &next
	}

	if len(rows) < pages*k && ref.Len() >= pages*k {
		t.Fatalf("paginated %d rows before exhaustion; one-shot run has %d", len(rows), ref.Len())
	}
	for i, r := range ranks {
		if r != i+1 {
			t.Fatalf("ranks[%d] = %d, want contiguous 1-based ranks across pages", i, r)
		}
	}
	depth := len(rows)
	if ref.Len() < depth {
		t.Fatalf("one-shot run has %d rows, pagination produced %d", ref.Len(), depth)
	}
	for i := 0; i < depth; i++ {
		if math.Abs(scores[i]-ref.Scores[i]) > 1e-9 {
			t.Fatalf("score[%d] = %.12f paged vs %.12f one-shot", i, scores[i], ref.Scores[i])
		}
	}
	verifyRanked(t, &testQueryResponse{Rows: rows, Scores: scores}, bound, depth)
	// Resumable means paging costs about what one deep run costs, not a
	// re-enumeration per page.
	if limit := ref.Stats.TuplesScanned * 12 / 10; lastScanned <= 0 || lastScanned > limit {
		t.Errorf("paging scanned %d tuples, one deep run %d (want 0 < n <= 1.2x = %d)",
			lastScanned, ref.Stats.TuplesScanned, limit)
	}

	// Close releases the cursor; a second close is a clean 404.
	var closed struct {
		Closed bool   `json:"closed"`
		Error  string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/cursor/close",
		map[string]interface{}{"cursor_id": page.CursorID}, &closed); code != http.StatusOK || !closed.Closed {
		t.Fatalf("close: status %d, %+v", code, closed)
	}
	var again struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/cursor/close",
		map[string]interface{}{"cursor_id": page.CursorID}, &again); code != http.StatusNotFound {
		t.Fatalf("double close: status %d, want 404", code)
	}
}

// TestCursorAfterRank pins the fast-forward contract: after_rank skips
// ahead to an exact rank, and rewinding is a clean 400.
func TestCursorAfterRank(t *testing.T) {
	db, _, ts := newCursorServer(t, 400, 0)
	const bound, k = 300.0, 5

	ref, err := db.QueryContext(t.Context(), testQuerySQL, bound, 40)
	if err != nil {
		t.Fatal(err)
	}
	page := openCursor(t, ts.URL, bound, k) // ranks 1..5

	var jump cursorResponse
	postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": k, "after_rank": 20}, &jump)
	if jump.Error != "" {
		t.Fatalf("after_rank=20: %s", jump.Error)
	}
	if len(jump.Ranks) != k || jump.Ranks[0] != 21 {
		t.Fatalf("after_rank=20 page starts at rank %v, want 21", jump.Ranks)
	}
	for i, s := range jump.Scores {
		if math.Abs(s-ref.Scores[20+i]) > 1e-9 {
			t.Fatalf("rank %d score %.12f, one-shot has %.12f", 21+i, s, ref.Scores[20+i])
		}
	}

	// The stream is at rank 25 now; asking to resume after rank 10 must
	// fail — ranked streams cannot rewind.
	var back cursorResponse
	code := postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": k, "after_rank": 10}, &back)
	if code != http.StatusBadRequest || !strings.Contains(back.Error, "rewind") {
		t.Fatalf("rewind: status %d, error %q; want 400 mentioning rewind", code, back.Error)
	}

	// The failed rewind must not have disturbed the position.
	var cont cursorResponse
	postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": k}, &cont)
	if cont.Error != "" || cont.Ranks[0] != 26 {
		t.Fatalf("page after failed rewind starts at %v (err %q), want rank 26", cont.Ranks, cont.Error)
	}
}

// TestCursorExpiryGC pins the idle GC: the session TTL governs cursors
// too, an expired cursor's pull fails with a clean "expired" error
// (distinct from never-existed ids), and /stats accounts for it.
func TestCursorExpiryGC(t *testing.T) {
	_, s, ts := newCursorServer(t, 200, time.Minute)

	page := openCursor(t, ts.URL, 300, 5)
	if got := s.cursors.Len(); got != 1 {
		t.Fatalf("open cursors = %d, want 1", got)
	}

	// Force the GC with a clock past the TTL (no real sleeps).
	s.cursors.Sweep(time.Now().Add(2 * time.Minute))
	if got := s.cursors.Len(); got != 0 {
		t.Fatalf("open cursors after sweep = %d, want 0", got)
	}

	var next cursorResponse
	code := postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": 5}, &next)
	if code != http.StatusNotFound {
		t.Errorf("expired-cursor pull: status %d, want 404", code)
	}
	if !strings.Contains(next.Error, "expired") {
		t.Errorf("expired-cursor error %q should say the cursor expired", next.Error)
	}
	// /cursor/close consults the same tombstones: one lookup, one error.
	var closed cursorResponse
	code = postJSON(t, ts.URL+"/cursor/close", map[string]interface{}{
		"cursor_id": page.CursorID}, &closed)
	if code != http.StatusNotFound || closed.Error != next.Error {
		t.Errorf("expired-cursor close: status %d, error %q; want 404 and the pull's error %q", code, closed.Error, next.Error)
	}
	// ...and is distinct from a never-existed cursor id.
	var bogus cursorResponse
	postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": "cur-bogus", "fetch": 5}, &bogus)
	if bogus.Error == "" || strings.Contains(bogus.Error, "expired") {
		t.Errorf("unknown-cursor error %q should not claim expiry", bogus.Error)
	}

	var stats struct {
		Cursors struct {
			Open    int    `json:"open"`
			Opened  uint64 `json:"opened"`
			Expired uint64 `json:"expired"`
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
		} `json:"cursors"`
	}
	resp, err := http.Get(ts.URL + "/stats")
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

// TestCursorInvalidationOverHTTP pins the DDL story end to end: a
// schema change after open turns the next pull into a 409, the cursor
// is closed server-side, and later pulls see a plain miss.
func TestCursorInvalidationOverHTTP(t *testing.T) {
	_, s, ts := newCursorServer(t, 200, 0)

	page := openCursor(t, ts.URL, 300, 5)

	var ddl struct {
		Error string `json:"error"`
	}
	postJSON(t, ts.URL+"/exec", map[string]interface{}{
		"sql": `CREATE TABLE unrelated (x INT)`}, &ddl)
	if ddl.Error != "" {
		t.Fatalf("ddl: %s", ddl.Error)
	}

	var next cursorResponse
	code := postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": 5}, &next)
	if code != http.StatusConflict || !strings.Contains(next.Error, "invalidated") {
		t.Fatalf("pull after DDL: status %d, error %q; want 409 mentioning invalidation", code, next.Error)
	}
	if got := s.cursors.Len(); got != 0 {
		t.Fatalf("open cursors after invalidation = %d, want 0", got)
	}
	var again cursorResponse
	if code := postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": 5}, &again); code != http.StatusNotFound {
		t.Fatalf("pull after teardown: status %d, want 404", code)
	}
}

// TestCursorSnapshotOverHTTP pins snapshot semantics over the wire:
// rows inserted after the cursor opened do not appear in later pages.
func TestCursorSnapshotOverHTTP(t *testing.T) {
	_, _, ts := newCursorServer(t, 200, 0)

	page := openCursor(t, ts.URL, 300, 5)

	var ins struct {
		RowsAffected int    `json:"rows_affected"`
		Error        string `json:"error"`
	}
	postJSON(t, ts.URL+"/exec", map[string]interface{}{
		"sql":    `INSERT INTO product VALUES (?, ?, ?, ?, ?)`,
		"params": []interface{}{"CURSOR-INTRUDER", 0.01, 5.0, 99999, true},
	}, &ins)
	if ins.Error != "" || ins.RowsAffected != 1 {
		t.Fatalf("insert: %+v", ins)
	}

	for pulls := 0; !page.Exhausted; pulls++ {
		if pulls > 1000 {
			t.Fatal("cursor never exhausted")
		}
		for _, row := range page.Rows {
			if row[0] == "CURSOR-INTRUDER" {
				t.Fatal("row inserted after open leaked into the snapshot stream")
			}
		}
		var next cursorResponse
		postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
			"cursor_id": page.CursorID, "fetch": 25}, &next)
		if next.Error != "" {
			t.Fatalf("pull %d: %s", pulls+1, next.Error)
		}
		page = &next
	}

	// A fresh query does see it — at rank 1, given its near-perfect score.
	var fresh cursorResponse
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{300, 3}}, &fresh)
	if fresh.Error != "" || len(fresh.Rows) == 0 || fresh.Rows[0][0] != "CURSOR-INTRUDER" {
		t.Fatalf("fresh top-3 should lead with the inserted row, got %+v (err %q)", fresh.Rows, fresh.Error)
	}
	if len(fresh.Ranks) != len(fresh.Rows) || fresh.Ranks[0] != 1 {
		t.Fatalf("plain /query ranks = %v, want 1-based total-order ranks", fresh.Ranks)
	}
}
