package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ranksql"
)

func discardSlog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, rows int) (*Server, *httptest.Server) {
	t.Helper()
	db := ranksql.Open()
	if err := Webshop.Seed(db, rows); err != nil {
		t.Fatal(err)
	}
	s := New(db, WithTraceLogger(discardSlog()))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, req interface{}, out interface{}) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

type testQueryResponse struct {
	Columns  []string        `json:"columns"`
	Rows     [][]interface{} `json:"rows"`
	Scores   []float64       `json:"scores"`
	CacheHit bool            `json:"cache_hit"`
	Error    string          `json:"error"`
}

const testQuerySQL = `SELECT name, price, stars, sales FROM product
	WHERE in_stock AND price < ?
	ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?`

// expectedScore recomputes the webshop scoring function from a result
// row, so any response can be verified self-consistently even while the
// table is being mutated concurrently.
func expectedScore(row []interface{}) float64 {
	price := row[1].(float64)
	stars := row[2].(float64)
	sales := row[3].(float64) // JSON numbers decode as float64
	return 0.5*(stars/5) + 0.3*(math.Log1p(sales)/math.Log1p(100000)) + 0.2*math.Max(0, 1-price/500)
}

// verifyRanked checks the ranked-result contract on a response: row count
// bounded by k, scores non-increasing, scores matching the row contents,
// and every row satisfying the WHERE bound.
func verifyRanked(t *testing.T, resp *testQueryResponse, priceBound float64, k int) {
	t.Helper()
	if resp.Error != "" {
		t.Fatalf("query error: %s", resp.Error)
	}
	if len(resp.Rows) > k {
		t.Fatalf("got %d rows, want <= %d", len(resp.Rows), k)
	}
	if len(resp.Scores) != len(resp.Rows) {
		t.Fatalf("scores/rows mismatch: %d vs %d", len(resp.Scores), len(resp.Rows))
	}
	for i, row := range resp.Rows {
		if price := row[1].(float64); price >= priceBound {
			t.Errorf("row %d price %.2f violates bound %.2f", i, price, priceBound)
		}
		if want := expectedScore(row); math.Abs(want-resp.Scores[i]) > 1e-9 {
			t.Errorf("row %d score %.6f, recomputed %.6f", i, resp.Scores[i], want)
		}
		if i > 0 && resp.Scores[i] > resp.Scores[i-1]+1e-9 {
			t.Errorf("scores not non-increasing at %d: %.6f > %.6f", i, resp.Scores[i], resp.Scores[i-1])
		}
	}
}

func TestServerSessionPrepareExecuteFlow(t *testing.T) {
	_, ts := newTestServer(t, 2000)

	var sess struct {
		SessionID string `json:"session_id"`
	}
	if code := postJSON(t, ts.URL+"/session", map[string]interface{}{}, &sess); code != 200 {
		t.Fatalf("session: status %d", code)
	}
	if sess.SessionID == "" {
		t.Fatal("empty session id")
	}

	var prep struct {
		StmtID    string `json:"stmt_id"`
		NumParams int    `json:"num_params"`
		IsQuery   bool   `json:"is_query"`
		Error     string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/prepare",
		map[string]interface{}{"session_id": sess.SessionID, "sql": testQuerySQL}, &prep); code != 200 {
		t.Fatalf("prepare: status %d (%s)", code, prep.Error)
	}
	if prep.NumParams != 2 || !prep.IsQuery {
		t.Fatalf("prepare meta = %+v", prep)
	}

	// Execute with two different bindings; the second must hit the cache.
	var r1, r2 testQueryResponse
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"session_id": sess.SessionID, "stmt_id": prep.StmtID, "params": []interface{}{300, 5},
	}, &r1)
	verifyRanked(t, &r1, 300, 5)
	if len(r1.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(r1.Rows))
	}
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"session_id": sess.SessionID, "stmt_id": prep.StmtID, "params": []interface{}{120, 5},
	}, &r2)
	verifyRanked(t, &r2, 120, 5)
	if !r2.CacheHit {
		t.Error("second execution should hit the plan cache")
	}

	// Ad-hoc /query with inline SQL and params: same template and k as
	// the prepared statement, so it shares the cached plan.
	var r3 testQueryResponse
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{200, 5},
	}, &r3)
	verifyRanked(t, &r3, 200, 5)
	if !r3.CacheHit {
		t.Error("ad-hoc query with an already-cached template should hit")
	}

	// Prepared INSERT through /exec.
	var prepIns struct {
		StmtID string `json:"stmt_id"`
		Error  string `json:"error"`
	}
	postJSON(t, ts.URL+"/prepare", map[string]interface{}{
		"session_id": sess.SessionID, "sql": `INSERT INTO product VALUES (?, ?, ?, ?, ?)`,
	}, &prepIns)
	var ex struct {
		RowsAffected int    `json:"rows_affected"`
		Error        string `json:"error"`
	}
	postJSON(t, ts.URL+"/exec", map[string]interface{}{
		"session_id": sess.SessionID, "stmt_id": prepIns.StmtID,
		"params": []interface{}{"TEST-ROW", 9.99, 5.0, 42, true},
	}, &ex)
	if ex.Error != "" || ex.RowsAffected != 1 {
		t.Fatalf("exec: %+v", ex)
	}

	// Stats reflect the traffic.
	var stats Snapshot
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries != 3 || stats.Execs != 1 {
		t.Errorf("stats queries=%d execs=%d, want 3/1", stats.Queries, stats.Execs)
	}
	if stats.PlanCache.Hits == 0 {
		t.Error("stats should show plan cache hits")
	}
	if len(stats.PerQuery) == 0 {
		t.Error("stats should show per-query aggregates")
	} else if stats.PerQuery[0].MaxDepthK != 5 {
		t.Errorf("max depth-k = %d, want 5", stats.PerQuery[0].MaxDepthK)
	}

	// Session close releases the statements.
	var closed struct {
		Closed bool   `json:"closed"`
		Error  string `json:"error"`
	}
	postJSON(t, ts.URL+"/session/close", map[string]interface{}{"session_id": sess.SessionID}, &closed)
	if !closed.Closed {
		t.Fatalf("close: %+v", closed)
	}
	var rErr testQueryResponse
	code := postJSON(t, ts.URL+"/query", map[string]interface{}{
		"session_id": sess.SessionID, "stmt_id": prep.StmtID, "params": []interface{}{100, 2},
	}, &rErr)
	if code != http.StatusNotFound {
		t.Errorf("query on closed session: status %d, want 404", code)
	}
}

func TestServerErrors(t *testing.T) {
	_, ts := newTestServer(t, 100)
	var out struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/query", map[string]interface{}{}, &out); code != http.StatusBadRequest {
		t.Errorf("missing sql: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/query", map[string]interface{}{"sql": "SELEC garbage"}, &out); code != http.StatusBadRequest {
		t.Errorf("bad sql: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": "SELECT name FROM product LIMIT ?", "params": []interface{}{[]int{1}},
	}, &out); code != http.StatusBadRequest {
		t.Errorf("bad param type: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/session/close", map[string]interface{}{"session_id": "nope"}, &out); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d", code)
	}
}

// TestConcurrentQueriesAndInserts is the -race exercise demanded by the
// service design: many clients running prepared top-k queries while
// writers INSERT through the same HTTP server. Every response must still
// satisfy the ranked contract (bounded, correctly ordered, scores
// consistent with row contents).
func TestConcurrentQueriesAndInserts(t *testing.T) {
	_, ts := newTestServer(t, 3000)

	const (
		readers          = 8
		writers          = 2
		queriesPerReader = 40
		insertsPerWriter = 25
	)
	var wg sync.WaitGroup
	var cacheHits int64

	// Warm the cache so reader hit observations are deterministic enough
	// to assert on afterwards.
	var warm testQueryResponse
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{400, 10},
	}, &warm)
	verifyRanked(t, &warm, 400, 10)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prep struct {
				StmtID string `json:"stmt_id"`
				Error  string `json:"error"`
			}
			postJSON(t, ts.URL+"/prepare", map[string]interface{}{
				"sql": `INSERT INTO product VALUES (?, ?, ?, ?, ?)`,
			}, &prep)
			if prep.Error != "" {
				t.Errorf("writer %d prepare: %s", w, prep.Error)
				return
			}
			for i := 0; i < insertsPerWriter; i++ {
				var ex struct {
					Error string `json:"error"`
				}
				postJSON(t, ts.URL+"/exec", map[string]interface{}{
					"stmt_id": prep.StmtID,
					"params": []interface{}{
						fmt.Sprintf("W%d-%03d", w, i), 10 + float64(i), 4.5, 1000 * i, true,
					},
				}, &ex)
				if ex.Error != "" {
					t.Errorf("writer %d insert %d: %s", w, i, ex.Error)
					return
				}
			}
		}(w)
	}

	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			var sess struct {
				SessionID string `json:"session_id"`
			}
			postJSON(t, ts.URL+"/session", map[string]interface{}{}, &sess)
			var prep struct {
				StmtID string `json:"stmt_id"`
				Error  string `json:"error"`
			}
			postJSON(t, ts.URL+"/prepare", map[string]interface{}{
				"session_id": sess.SessionID, "sql": testQuerySQL,
			}, &prep)
			if prep.Error != "" {
				t.Errorf("reader %d prepare: %s", rdr, prep.Error)
				return
			}
			for i := 0; i < queriesPerReader; i++ {
				bound := 150 + float64((rdr*queriesPerReader+i)%8)*40
				k := 1 + (i % 10)
				var resp testQueryResponse
				postJSON(t, ts.URL+"/query", map[string]interface{}{
					"session_id": sess.SessionID, "stmt_id": prep.StmtID,
					"params": []interface{}{bound, k},
				}, &resp)
				verifyRanked(t, &resp, bound, k)
				if resp.CacheHit {
					atomic.AddInt64(&cacheHits, 1)
				}
			}
		}(rdr)
	}
	wg.Wait()

	if cacheHits == 0 {
		t.Error("expected plan cache hits under repeated-template load")
	}

	// After the churn: the same query twice must agree exactly, and the
	// inserted rows must be visible.
	var a, b testQueryResponse
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{500, 20},
	}, &a)
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{500, 20},
	}, &b)
	verifyRanked(t, &a, 500, 20)
	if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
		t.Error("identical queries after quiescence disagree")
	}
	var cnt testQueryResponse
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": `SELECT name FROM product WHERE name = ? LIMIT 2`, "params": []interface{}{"W0-000"},
	}, &cnt)
	if len(cnt.Rows) != 1 {
		t.Errorf("inserted row W0-000 not found (%d matches)", len(cnt.Rows))
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	db := ranksql.Open()
	if err := Webshop.Seed(db, 100); err != nil {
		t.Fatal(err)
	}
	s := New(db, WithTraceLogger(discardSlog()))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ServeListener(ctx, ln) }()

	// The server must answer, then stop cleanly on cancel.
	url := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestSessionExpiryGC covers the idle-session TTL: an expired session's
// prepared handles are rejected with a clean "expired" error (not a
// panic, and distinct from "unknown session"), the default session is
// exempt, and /stats counts the collection.
func TestSessionExpiryGC(t *testing.T) {
	db := ranksql.Open()
	if err := Webshop.Seed(db, 200); err != nil {
		t.Fatal(err)
	}
	s := New(db, WithSessionTTL(time.Minute))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var sess struct {
		SessionID string `json:"session_id"`
		Error     string `json:"error"`
	}
	postJSON(t, ts.URL+"/session", map[string]interface{}{}, &sess)
	if sess.Error != "" || sess.SessionID == "" {
		t.Fatalf("session open: %+v", sess)
	}
	var prep struct {
		StmtID string `json:"stmt_id"`
		Error  string `json:"error"`
	}
	postJSON(t, ts.URL+"/prepare",
		map[string]interface{}{"session_id": sess.SessionID, "sql": testQuerySQL}, &prep)
	if prep.Error != "" {
		t.Fatalf("prepare: %s", prep.Error)
	}
	// A default-session statement prepared before the sweep must survive it.
	var defPrep struct {
		StmtID string `json:"stmt_id"`
		Error  string `json:"error"`
	}
	postJSON(t, ts.URL+"/prepare", map[string]interface{}{"sql": testQuerySQL}, &defPrep)
	if defPrep.Error != "" {
		t.Fatalf("default-session prepare: %s", defPrep.Error)
	}

	// The session works before expiry.
	var q testQueryResponse
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"session_id": sess.SessionID, "stmt_id": prep.StmtID,
		"params": []interface{}{300, 5}}, &q)
	verifyRanked(t, &q, 300, 5)

	// Force the GC with a clock past the TTL (no real sleeps).
	s.sessions.Sweep(time.Now().Add(2 * time.Minute))

	// The expired session's prepared handle fails cleanly and says why.
	var q2 testQueryResponse
	code := postJSON(t, ts.URL+"/query", map[string]interface{}{
		"session_id": sess.SessionID, "stmt_id": prep.StmtID,
		"params": []interface{}{300, 5}}, &q2)
	if code != http.StatusNotFound {
		t.Errorf("expired-session query: status %d, want 404", code)
	}
	if !strings.Contains(q2.Error, "expired") {
		t.Errorf("expired-session error %q should say the session expired", q2.Error)
	}
	// ...and is distinct from a never-existed session id.
	var q3 testQueryResponse
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"session_id": "sess-bogus", "stmt_id": prep.StmtID,
		"params": []interface{}{300, 5}}, &q3)
	if q3.Error == "" || strings.Contains(q3.Error, "expired") {
		t.Errorf("unknown-session error %q should not claim expiry", q3.Error)
	}

	// The default session is exempt: its statement still executes.
	var q4 testQueryResponse
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"stmt_id": defPrep.StmtID, "params": []interface{}{300, 5}}, &q4)
	verifyRanked(t, &q4, 300, 5)

	// Reopening is the documented recovery, and /stats records the GC.
	var sess2 struct {
		SessionID string `json:"session_id"`
		Error     string `json:"error"`
	}
	postJSON(t, ts.URL+"/session", map[string]interface{}{}, &sess2)
	if sess2.Error != "" || sess2.SessionID == sess.SessionID {
		t.Fatalf("reopen: %+v", sess2)
	}
	var stats struct {
		Sessions        int    `json:"sessions"`
		SessionsExpired uint64 `json:"sessions_expired"`
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.SessionsExpired != 1 {
		t.Errorf("sessions_expired = %d, want 1", stats.SessionsExpired)
	}
	if stats.Sessions != 1 {
		t.Errorf("open sessions = %d, want 1 (the reopened one)", stats.Sessions)
	}
}
