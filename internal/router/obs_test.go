package router

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ranksql"
	"ranksql/internal/obs"
	"ranksql/internal/server"
)

// syncBuffer is a goroutine-safe log sink for slog handlers written to
// from HTTP handler goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

func debugLogger(sink io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(sink, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// obsCluster spins up shards and a router whose structured logs are
// captured, for asserting trace propagation end to end.
func obsCluster(t *testing.T, n, rows int) (*cluster, *syncBuffer, *syncBuffer) {
	t.Helper()
	shardLog := &syncBuffer{}
	routerLog := &syncBuffer{}
	c := &cluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		db := ranksql.Open()
		if err := server.RegisterWebshopScorers(db); err != nil {
			t.Fatal(err)
		}
		s := server.New(db,
			server.WithTraceLogger(debugLogger(shardLog)))
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		c.dbs = append(c.dbs, db)
		urls[i] = ts.URL
	}
	r, err := New(urls, WithTraceLogger(debugLogger(routerLog)))
	if err != nil {
		t.Fatal(err)
	}
	c.router = r
	c.front = httptest.NewServer(r.Handler())
	t.Cleanup(c.front.Close)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}
	return c, shardLog, routerLog
}

const obsQuerySQL = `SELECT name, price, stars, sales FROM product
	WHERE in_stock AND price < ?
	ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?`

// TestTracePropagation: a trace ID minted by the client (or the router)
// reaches every shard via the X-Ranksql-Trace header and shows up in
// the shard-side structured logs, correlating one merged query across
// the cluster.
func TestTracePropagation(t *testing.T) {
	c, shardLog, routerLog := obsCluster(t, 2, 300)

	const traceID = "feedface00000001"
	body, _ := json.Marshal(map[string]interface{}{
		"sql": obsQuerySQL, "params": []interface{}{300.0, 5},
	})
	req, _ := http.NewRequest(http.MethodPost, c.front.URL+"/query", bytes.NewReader(body))
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Errorf("router response trace header = %q, want %q", got, traceID)
	}
	var qr struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID != traceID {
		t.Errorf("trace_id = %q, want %q", qr.TraceID, traceID)
	}

	if logged := shardLog.String(); !strings.Contains(logged, traceID) {
		t.Errorf("shard logs do not carry the propagated trace ID %s:\n%s", traceID, logged)
	}
	routerLogged := routerLog.String()
	if !strings.Contains(routerLogged, traceID) {
		t.Errorf("router log missing trace ID:\n%s", routerLogged)
	}
	for _, span := range []string{"plan", "merge", "shard0_fetch1", "shard1_fetch1"} {
		if !strings.Contains(routerLogged, span) {
			t.Errorf("router log missing %q span:\n%s", span, routerLogged)
		}
	}
}

// TestRouterMetricsEndpoint: the router serves its registry at /metrics
// in Prometheus text format, including the merge-effectiveness counters.
func TestRouterMetricsEndpoint(t *testing.T) {
	c, _, _ := obsCluster(t, 2, 300)
	for i := 0; i < 2; i++ {
		var qr testQueryResponse
		postJSON(t, c.front.URL+"/query", map[string]interface{}{
			"sql": obsQuerySQL, "params": []interface{}{300.0, 5},
		}, &qr)
		if qr.Error != "" {
			t.Fatal(qr.Error)
		}
	}
	resp, err := http.Get(c.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE ranksql_router_queries_total counter",
		"ranksql_router_queries_total 2",
		"ranksql_router_query_duration_seconds_bucket{le=",
		"ranksql_router_query_duration_seconds_count 2",
		"ranksql_router_rows_fetched_total",
		"ranksql_router_rows_returned_total",
		"ranksql_router_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRouterDeadlineMS: a merged query that cannot finish inside its
// deadline_ms budget fails with 504 and counts as a router timeout.
func TestRouterDeadlineMS(t *testing.T) {
	c, _, _ := obsCluster(t, 2, 2000)
	for _, db := range c.dbs {
		db.SetSpin(200000)
	}
	var qr testQueryResponse
	code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": obsQuerySQL, "params": []interface{}{300.0, 50}, "deadline_ms": 1,
	}, &qr)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (err=%q)", code, qr.Error)
	}
	if !strings.Contains(qr.Error, "deadline_ms") {
		t.Errorf("error %q should name the deadline", qr.Error)
	}
	for _, db := range c.dbs {
		db.SetSpin(0)
	}
	// A generous budget leaves fast queries untouched.
	code = postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": obsQuerySQL, "params": []interface{}{300.0, 5}, "deadline_ms": 60000,
	}, &qr)
	if code != http.StatusOK {
		t.Fatalf("status with slack deadline = %d: %s", code, qr.Error)
	}

	// A cursor page obeys the same budget, and the cursor survives it: the
	// same cursor_id serves the page, from the right rank, once given time.
	// (Scorer spin is captured when a stream opens, so the cursor opens slow.)
	for _, db := range c.dbs {
		db.SetSpin(200000)
	}
	var page, slow, next testQueryResponse
	postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": obsQuerySQL, "params": []interface{}{300.0, 5}, "cursor": true, "fetch": 5}, &page)
	if page.Error != "" || page.CursorID == "" {
		t.Fatalf("cursor open: error %q, cursor_id %q", page.Error, page.CursorID)
	}
	code = postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": 50, "deadline_ms": 1}, &slow)
	if code != http.StatusGatewayTimeout || !strings.Contains(slow.Error, "deadline_ms") {
		t.Fatalf("slow cursor page: status %d, error %q; want 504 naming the deadline", code, slow.Error)
	}
	code = postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": 50, "deadline_ms": 60000}, &next)
	if code != http.StatusOK || len(next.Ranks) != 50 || next.Ranks[0] != 6 {
		t.Fatalf("page after the timeout: status %d, error %q, ranks %v; want 200 and ranks 6..55", code, next.Error, next.Ranks)
	}

	var stats Snapshot
	resp, err := http.Get(c.front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Timeouts != 2 {
		t.Errorf("timeouts = %d, want 2 (one-shot + cursor page)", stats.Timeouts)
	}
}
