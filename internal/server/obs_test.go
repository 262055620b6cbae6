package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ranksql"
	"ranksql/internal/obs"
)

// TestMetricsEndpoint: /metrics serves the registry in Prometheus text
// format, with the query counters and the latency histogram present
// after traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 100)
	for i := 0; i < 3; i++ {
		var qr testQueryResponse
		if code := postJSON(t, ts.URL+"/query", map[string]interface{}{
			"sql": testQuerySQL, "params": []interface{}{400.0, 5},
		}, &qr); code != http.StatusOK {
			t.Fatalf("query status %d: %s", code, qr.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
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
		"# TYPE ranksqld_queries_total counter",
		"ranksqld_queries_total 3",
		"ranksqld_query_duration_seconds_bucket{le=",
		"ranksqld_query_duration_seconds_count 3",
		"ranksqld_sessions",
		"ranksqld_plan_cache_entries",
		"ranksqld_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDeadlineMS: a query that cannot finish inside its deadline_ms
// budget fails with 504 and is counted as a timeout, distinct from
// ordinary errors in kind.
func TestDeadlineMS(t *testing.T) {
	s, ts := newTestServer(t, 2000)
	// lag(price) is bargain's score, computed after a 100µs busy wait
	// while slow is set: the test picks which requests miss their budget.
	var slow atomic.Bool
	if err := s.DB().RegisterScorer("lag", func(args []ranksql.Value) float64 {
		for start := time.Now(); slow.Load() && time.Since(start) < 100*time.Microsecond; {
		}
		return math.Max(0, 1-args[0].Float()/500)
	}); err != nil {
		t.Fatal(err)
	}
	const lagQuerySQL = `SELECT name, price, stars, sales FROM product
		WHERE in_stock AND price < ?
		ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*lag(price) LIMIT ?`
	slow.Store(true)

	var qr testQueryResponse
	code := postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": lagQuerySQL, "params": []interface{}{400.0, 50}, "deadline_ms": 1,
	}, &qr)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (err=%q)", code, qr.Error)
	}
	if !strings.Contains(qr.Error, "deadline_ms") {
		t.Errorf("error %q should name the deadline", qr.Error)
	}

	slow.Store(false)
	// A generous deadline does not interfere with a fast query.
	code = postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": lagQuerySQL, "params": []interface{}{400.0, 5}, "deadline_ms": 60000,
	}, &qr)
	if code != http.StatusOK {
		t.Fatalf("status with slack deadline = %d: %s", code, qr.Error)
	}

	// A cursor page obeys the same budget, and the cursor survives it: the
	// same cursor_id serves the page, from the right rank, once given time.
	var page, slowPage, next cursorResponse
	postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": lagQuerySQL, "params": []interface{}{400.0, 5}, "cursor": true, "fetch": 5}, &page)
	if page.Error != "" || page.CursorID == "" {
		t.Fatalf("cursor open: error %q, cursor_id %q", page.Error, page.CursorID)
	}
	slow.Store(true)
	code = postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": 50, "deadline_ms": 1}, &slowPage)
	if code != http.StatusGatewayTimeout || !strings.Contains(slowPage.Error, "deadline_ms") {
		t.Fatalf("slow cursor page: status %d, error %q; want 504 naming the deadline", code, slowPage.Error)
	}
	slow.Store(false)
	code = postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": 50, "deadline_ms": 60000}, &next)
	if code != http.StatusOK || len(next.Ranks) != 50 || next.Ranks[0] != 6 {
		t.Fatalf("page after the timeout: status %d, error %q, ranks %v; want 200 and ranks 6..55", code, next.Error, next.Ranks)
	}

	var stats Snapshot
	resp, err := http.Get(ts.URL + "/stats")
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
	if stats.Errors != 2 {
		t.Errorf("errors = %d, want 2 (each timeout also counts as an error)", stats.Errors)
	}

	// A cursor open whose first page misses its budget answers no
	// cursor_id, so no client could close the cursor: none may stay open.
	var closed cursorResponse
	postJSON(t, ts.URL+"/cursor/close", map[string]interface{}{"cursor_id": page.CursorID}, &closed)
	slow.Store(true)
	var open cursorResponse
	code = postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": lagQuerySQL, "params": []interface{}{400.0, 50}, "cursor": true, "fetch": 50, "deadline_ms": 1}, &open)
	slow.Store(false)
	if code != http.StatusGatewayTimeout || open.CursorID != "" {
		t.Fatalf("slow cursor open: status %d, cursor_id %q, error %q; want 504 and no cursor_id", code, open.CursorID, open.Error)
	}
	var after Snapshot
	getJSONBody(t, ts.URL+"/stats", &after)
	if after.Cursors.Open != 0 {
		t.Errorf("/stats cursors.open after the failed open = %d, want 0", after.Cursors.Open)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// written from HTTP handler goroutines.
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

// TestSlowQueryLogAndTrace: with a zero-ish slow threshold every query
// lands in the slow-query log at Warn, carrying the propagated trace ID
// and per-span timings; the response echoes the trace ID in both the
// header and the body.
func TestSlowQueryLogAndTrace(t *testing.T) {
	db := ranksql.Open()
	if err := SeedWebshop(db, 100); err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s := New(db,
		WithTraceLogger(logger),
		WithSlowQueryThreshold(time.Nanosecond))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const traceID = "deadbeef01234567"
	body, _ := json.Marshal(map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{400.0, 5},
	})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
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
		t.Errorf("response trace header = %q, want %q", got, traceID)
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

	logged := buf.String()
	if !strings.Contains(logged, "slow query") {
		t.Errorf("slow-query log missing:\n%s", logged)
	}
	if !strings.Contains(logged, traceID) {
		t.Errorf("log does not carry the trace ID:\n%s", logged)
	}
	for _, span := range []string{"resolve", "execute"} {
		if !strings.Contains(logged, span) {
			t.Errorf("log missing %q span:\n%s", span, logged)
		}
	}

	var stats Snapshot
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.SlowQueries != 1 {
		t.Errorf("slow_queries = %d, want 1", stats.SlowQueries)
	}
}

// TestStatsOperatorProfiles: the engine samples per-operator profiling
// (every execution here, with sampling set to 1), and /stats surfaces
// the per-template operator breakdown with rows, depth-k and time.
func TestStatsOperatorProfiles(t *testing.T) {
	s, ts := newTestServer(t, 200)
	s.DB().SetProfileSampling(1)
	for i := 0; i < 3; i++ {
		var qr testQueryResponse
		if code := postJSON(t, ts.URL+"/query", map[string]interface{}{
			"sql": testQuerySQL, "params": []interface{}{400.0, 5},
		}, &qr); code != http.StatusOK {
			t.Fatalf("query status %d: %s", code, qr.Error)
		}
	}
	var stats Snapshot
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.PerQuery) == 0 {
		t.Fatal("no per-query stats")
	}
	ops := stats.PerQuery[0].Operators
	if len(ops) == 0 {
		t.Fatal("no operator profile on the hot template")
	}
	if ops[0].Depth != 0 {
		t.Errorf("first operator depth = %d, want 0 (pre-order root)", ops[0].Depth)
	}
	var sawScan bool
	for _, o := range ops {
		if o.Samples != 3 {
			t.Errorf("operator %s samples = %d, want 3", o.Op, o.Samples)
		}
		if o.AvgTimeMS < 0 {
			t.Errorf("operator %s negative avg time", o.Op)
		}
		if strings.Contains(strings.ToLower(o.Op), "scan") {
			sawScan = true
			if o.AvgDepthK <= 0 {
				t.Errorf("scan %s depth-k = %v, want > 0", o.Op, o.AvgDepthK)
			}
		}
	}
	if !sawScan {
		t.Errorf("no scan operator in profile: %+v", ops)
	}
}

// TestExplainAnalyzeOverHTTP: EXPLAIN ANALYZE flows through the query
// protocol unchanged, returning the rendered plan with runtime fields.
func TestExplainAnalyzeOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, 100)
	var qr testQueryResponse
	code := postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql":    "EXPLAIN ANALYZE " + testQuerySQL,
		"params": []interface{}{400.0, 5},
	}, &qr)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, qr.Error)
	}
	if len(qr.Columns) != 1 || qr.Columns[0] != "QUERY PLAN" {
		t.Fatalf("columns = %v", qr.Columns)
	}
	var text strings.Builder
	for _, row := range qr.Rows {
		text.WriteString(row[0].(string))
		text.WriteString("\n")
	}
	for _, want := range []string{"out=", "depth_k=", "time=", "calls="} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("analyze output missing %q:\n%s", want, text.String())
		}
	}
}

// TestMetricNamesStable pins the daemon's observable names: every
// /metrics series with its TYPE, and every key the /stats payload can
// carry, flattened to dotted paths ("[]" marks array elements). A rename
// in either view breaks dashboards and the benchmark's /stats reader
// silently, so it must show up here as a diff against these lists.
func TestMetricNamesStable(t *testing.T) {
	s, ts := newTestServer(t, 200)
	s.DB().SetProfileSampling(1) // per_query[].operators appears on profiled runs
	var qr testQueryResponse
	if code := postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{400.0, 5},
	}, &qr); code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, qr.Error)
	}

	wantSeries := []string{
		"ranksqld_build_info gauge",
		"ranksqld_cursor_hits_total counter",
		"ranksqld_cursor_misses_total counter",
		"ranksqld_cursor_pinned_bytes gauge",
		"ranksqld_cursor_pinned_bytes_max gauge",
		"ranksqld_cursors_expired_total gauge",
		"ranksqld_cursors_opened_total counter",
		"ranksqld_errors_total counter",
		"ranksqld_execs_total counter",
		"ranksqld_insight_high_drift_total gauge",
		"ranksqld_insight_records_total gauge",
		"ranksqld_insight_records_with_estimates_total gauge",
		"ranksqld_insight_ring_depth gauge",
		"ranksqld_open_cursors gauge",
		"ranksqld_plan_cache_entries gauge",
		"ranksqld_plan_cache_hits_total gauge",
		"ranksqld_plan_cache_misses_total gauge",
		"ranksqld_queries_total counter",
		"ranksqld_query_duration_seconds histogram",
		"ranksqld_rows_returned_total counter",
		"ranksqld_sessions gauge",
		"ranksqld_slow_queries_total counter",
		"ranksqld_timeouts_total counter",
		"ranksqld_tuples_materialized_total counter",
		"ranksqld_tuples_scanned_total counter",
		"ranksqld_uptime_seconds gauge",
	}
	wantStats := []string{
		"avg_query_ms", "build", "build.git_sha", "build.go_version", "build.version",
		"cursors", "cursors.expired", "cursors.hits", "cursors.misses", "cursors.open", "cursors.opened",
		"errors", "execs",
		"insight", "insight.high_drift_records", "insight.records", "insight.records_with_estimates",
		"insight.ring_capacity", "insight.ring_depth",
		"latency", "latency.count", "latency.mean_ms", "latency.p50_ms", "latency.p95_ms", "latency.p99_ms",
		"per_query", "per_query[].avg_depth_k", "per_query[].avg_latency_ms", "per_query[].cache_hits",
		"per_query[].count", "per_query[].errors", "per_query[].max_depth_k", "per_query[].operators",
		"per_query[].operators[].avg_depth_k", "per_query[].operators[].avg_rows",
		"per_query[].operators[].avg_time_ms", "per_query[].operators[].depth",
		"per_query[].operators[].op", "per_query[].operators[].samples",
		"per_query[].query", "per_query[].rows_total", "per_query[].tuples_scanned_total",
		"plan_cache", "plan_cache.capacity", "plan_cache.entries", "plan_cache.evictions",
		"plan_cache.hit_rate", "plan_cache.hits", "plan_cache.misses", "plan_cache.stale_recompiles",
		"qps", "qps_total", "queries",
		"resources", "resources.cursor_pinned_bytes", "resources.cursor_pinned_bytes_max",
		"resources.rows_returned", "resources.tuples_materialized", "resources.tuples_scanned",
		"sessions", "sessions_expired", "slow_queries", "tables", "timeouts", "uptime_seconds",
	}
	assertNames(t, "/metrics series", seriesTypes(t, s.Registry(), ts.URL), wantSeries)
	assertNames(t, "/stats keys", statsKeys(t, ts.URL), wantStats)
}

// seriesTypes lists the registry's series as "family TYPE", sorted:
// names from Registry.SortedNames (constant labels stripped), each paired
// with the TYPE line /metrics declares for its family.
func seriesTypes(t *testing.T, reg *obs.Registry, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	types := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
	}
	var out []string
	for _, name := range reg.SortedNames() {
		fam, _, _ := strings.Cut(name, "{")
		out = append(out, fam+" "+types[fam])
	}
	return out
}

// statsKeys flattens the /stats payload's keys to sorted dotted paths.
func statsKeys(t *testing.T, base string) []string {
	t.Helper()
	var v interface{}
	getJSONBody(t, base+"/stats", &v)
	keys := map[string]bool{}
	var walk func(prefix string, v interface{})
	walk = func(prefix string, v interface{}) {
		switch x := v.(type) {
		case map[string]interface{}:
			for k, e := range x {
				keys[prefix+k] = true
				walk(prefix+k+".", e)
			}
		case []interface{}:
			for _, e := range x {
				walk(strings.TrimSuffix(prefix, ".")+"[].", e)
			}
		}
	}
	walk("", v)
	out := make([]string, 0, len(keys))
	for k := range keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func assertNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s changed:\ngot  %q\nwant %q", what, got, want)
	}
}
