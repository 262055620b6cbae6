package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ranksql"
	"ranksql/internal/obs"
	"ranksql/internal/obs/insight"
)

// TestInsightEndpoints: with profiling forced on every execution, a few
// queries populate the insight ring and both /insight endpoints serve
// their schemas — workload window totals plus per-template profiles
// with depth-k distribution and estimate drift.
func TestInsightEndpoints(t *testing.T) {
	s, ts := newTestServer(t, 200)
	s.DB().SetProfileSampling(1)
	for i := 0; i < 4; i++ {
		var qr testQueryResponse
		if code := postJSON(t, ts.URL+"/query", map[string]interface{}{
			"sql": testQuerySQL, "params": []interface{}{400.0, 5},
		}, &qr); code != http.StatusOK {
			t.Fatalf("query status %d: %s", code, qr.Error)
		}
	}

	var w insight.Workload
	getJSONBody(t, ts.URL+"/insight/workload", &w)
	if w.RingDepth != 4 || w.RecordsObserved != 4 {
		t.Errorf("ring depth/observed = %d/%d, want 4/4", w.RingDepth, w.RecordsObserved)
	}
	if w.RingCapacity != insight.DefaultRingSize {
		t.Errorf("ring capacity = %d, want %d", w.RingCapacity, insight.DefaultRingSize)
	}
	if w.RowsReturned != 20 {
		t.Errorf("rows_returned = %d, want 20 (4 queries x k=5)", w.RowsReturned)
	}
	if w.TuplesScanned <= 0 {
		t.Errorf("tuples_scanned = %d, want > 0", w.TuplesScanned)
	}
	if w.RecordsWithEstimates != 4 {
		t.Errorf("records_with_estimates = %d, want 4 (every run profiled)", w.RecordsWithEstimates)
	}
	if w.MaxDriftRatio < 1 {
		t.Errorf("max_drift_ratio = %v, want >= 1 once estimates are aligned", w.MaxDriftRatio)
	}
	if len(w.Templates) != 1 || w.Templates[0].Count != 4 || w.Templates[0].Share != 1 {
		t.Errorf("templates = %+v, want one template owning the window", w.Templates)
	}

	var tr struct {
		Templates []insight.TemplateProfile `json:"templates"`
	}
	getJSONBody(t, ts.URL+"/insight/templates", &tr)
	if len(tr.Templates) != 1 {
		t.Fatalf("got %d template profiles, want 1", len(tr.Templates))
	}
	p := tr.Templates[0]
	if !strings.Contains(p.Template, "SELECT") {
		t.Errorf("template = %q, want the normalized query text", p.Template)
	}
	if p.Count != 4 {
		t.Errorf("count = %d, want 4", p.Count)
	}
	if p.DepthKMax <= 0 || p.DepthKP95 <= 0 {
		t.Errorf("depth-k max/p95 = %d/%d, want > 0", p.DepthKMax, p.DepthKP95)
	}
	if len(p.DepthKBuckets) == 0 {
		t.Error("depth_k_dist is empty")
	}
	if p.Footprint.P95Scanned <= 0 {
		t.Errorf("footprint p95 scanned = %d, want > 0", p.Footprint.P95Scanned)
	}
	if p.Drift == nil {
		t.Fatal("profile missing drift (profiled runs carry plan estimates)")
	}
	if p.Drift.Records != 4 || p.Drift.MaxRatio < 1 || p.Drift.WorstNode == "" {
		t.Errorf("drift = %+v, want 4 records with a named worst node", p.Drift)
	}

	// Both endpoints are GET-only.
	for _, path := range []string{"/insight/workload", "/insight/templates"} {
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestQueryResponseDriftFields: profiled executions surface depth_k and
// max_drift_ratio on the query response (for coordinator attribution);
// with profiling disabled the fields stay zero and the insight ring
// stays empty.
func TestQueryResponseDriftFields(t *testing.T) {
	s, ts := newTestServer(t, 200)
	s.DB().SetProfileSampling(1)

	var qr struct {
		DepthK        int64   `json:"depth_k"`
		MaxDriftRatio float64 `json:"max_drift_ratio"`
		Error         string  `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{400.0, 5},
	}, &qr); code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, qr.Error)
	}
	if qr.DepthK <= 0 {
		t.Errorf("depth_k = %d, want > 0 on a profiled run", qr.DepthK)
	}
	if qr.MaxDriftRatio < 1 {
		t.Errorf("max_drift_ratio = %v, want >= 1 on a profiled run", qr.MaxDriftRatio)
	}

	s.DB().SetProfileSampling(0)
	qr.DepthK, qr.MaxDriftRatio = 0, 0
	if code := postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{400.0, 5},
	}, &qr); code != http.StatusOK {
		t.Fatalf("unprofiled query status %d: %s", code, qr.Error)
	}
	if qr.DepthK != 0 || qr.MaxDriftRatio != 0 {
		t.Errorf("unprofiled response carries depth_k=%d drift=%v, want omitted",
			qr.DepthK, qr.MaxDriftRatio)
	}
}

// TestCursorPinnedBytesLifecycle: the pinned-bytes gauge rises while a
// suspended cursor holds state and falls to zero on every close path —
// explicit close, TTL GC, and DDL invalidation.
func TestCursorPinnedBytesLifecycle(t *testing.T) {
	_, s, ts := newCursorServer(t, 400, time.Minute)

	openOne := func() *cursorResponse {
		t.Helper()
		page := openCursor(t, ts.URL, 300, 5)
		if got := s.cursorPinnedBytes(); got <= 0 {
			t.Fatalf("pinned bytes with open cursor = %d, want > 0", got)
		}
		return page
	}

	// Explicit close.
	page := openOne()
	var closed struct {
		Closed bool `json:"closed"`
	}
	if code := postJSON(t, ts.URL+"/cursor/close",
		map[string]interface{}{"cursor_id": page.CursorID}, &closed); code != http.StatusOK || !closed.Closed {
		t.Fatalf("close: status %d, %+v", code, closed)
	}
	if got := s.cursorPinnedBytes(); got != 0 {
		t.Errorf("pinned bytes after explicit close = %d, want 0", got)
	}

	// TTL GC.
	openOne()
	s.cursors.Sweep(time.Now().Add(2 * time.Minute))
	if got := s.cursorPinnedBytes(); got != 0 {
		t.Errorf("pinned bytes after TTL sweep = %d, want 0", got)
	}

	// DDL invalidation: the failed pull tears the cursor down.
	page = openOne()
	var ddl struct {
		Error string `json:"error"`
	}
	postJSON(t, ts.URL+"/exec", map[string]interface{}{
		"sql": `CREATE TABLE pinned_probe (x INT)`}, &ddl)
	if ddl.Error != "" {
		t.Fatalf("ddl: %s", ddl.Error)
	}
	var next cursorResponse
	if code := postJSON(t, ts.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": 5}, &next); code != http.StatusConflict {
		t.Fatalf("pull after DDL: status %d, want 409", code)
	}
	if got := s.cursorPinnedBytes(); got != 0 {
		t.Errorf("pinned bytes after DDL invalidation = %d, want 0", got)
	}
	if got := s.cursors.Len(); got != 0 {
		t.Errorf("open cursors = %d, want 0", got)
	}
}

// TestInsightMetricsExposed: /metrics carries the insight gauges, the
// pinned-bytes gauges, and the build-info constant.
func TestInsightMetricsExposed(t *testing.T) {
	db, s, ts := newCursorServer(t, 400, 0)
	db.SetProfileSampling(1)

	var qr testQueryResponse
	if code := postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{400.0, 5},
	}, &qr); code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, qr.Error)
	}
	openCursor(t, ts.URL, 300, 5)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	// Two profiled executions: the one-shot query and the cursor-open
	// page both land in the ring.
	for _, want := range []string{
		"ranksqld_insight_ring_depth 2",
		"ranksqld_insight_records_total 2",
		"ranksqld_insight_records_with_estimates_total 2",
		"ranksqld_cursor_pinned_bytes ",
		"ranksqld_cursor_pinned_bytes_max ",
		"ranksqld_tuples_materialized_total",
		`ranksqld_build_info{version=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The live pinned-bytes gauge reflects the open cursor.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "ranksqld_cursor_pinned_bytes ") {
			if strings.TrimPrefix(line, "ranksqld_cursor_pinned_bytes ") == "0" {
				t.Errorf("gauge reads zero with an open cursor: %q", line)
			}
		}
	}

	// /stats mirrors the same accounting.
	var stats Snapshot
	getJSONBody(t, ts.URL+"/stats", &stats)
	if stats.Build.Version == "" || stats.Build.GoVersion == "" {
		t.Errorf("stats build info = %+v, want populated", stats.Build)
	}
	if stats.Resources.CursorPinnedBytes <= 0 {
		t.Errorf("stats cursor_pinned_bytes = %d, want > 0 with an open cursor", stats.Resources.CursorPinnedBytes)
	}
	if stats.Insight.Records != 2 || stats.Insight.RingDepth != 2 {
		t.Errorf("stats insight = %+v, want 2 records", stats.Insight)
	}
	if stats.Resources.TuplesMaterialized <= 0 {
		t.Errorf("stats tuples_materialized = %d, want > 0", stats.Resources.TuplesMaterialized)
	}
	if got := s.cursorPinnedBytes(); stats.Resources.CursorPinnedBytes != got {
		t.Errorf("stats pinned %d != live pinned %d", stats.Resources.CursorPinnedBytes, got)
	}
}

// TestCursorCloseTrace: /cursor/close propagates X-Ranksql-Trace into
// the response header and body, so explicit closes are correlatable in
// the trace log.
func TestCursorCloseTrace(t *testing.T) {
	_, _, ts := newCursorServer(t, 200, 0)
	page := openCursor(t, ts.URL, 300, 5)

	const traceID = "cafebabe89abcdef"
	body, _ := json.Marshal(map[string]interface{}{"cursor_id": page.CursorID})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/cursor/close", bytes.NewReader(body))
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Errorf("close response trace header = %q, want %q", got, traceID)
	}
	var out struct {
		Closed  bool   `json:"closed"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Closed || out.TraceID != traceID {
		t.Errorf("close body = %+v, want closed with trace %q", out, traceID)
	}
}

// TestSlowQueryLogPlanSnapshot: on profiled executions the slow-query
// log carries the structured plan snapshot with est-vs-actual deltas.
func TestSlowQueryLogPlanSnapshot(t *testing.T) {
	db := ranksql.Open()
	if err := Webshop.Seed(db, 100); err != nil {
		t.Fatal(err)
	}
	db.SetProfileSampling(1)
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s := New(db,
		WithTraceLogger(logger),
		WithSlowQueryThreshold(time.Nanosecond))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var qr testQueryResponse
	if code := postJSON(t, ts.URL+"/query", map[string]interface{}{
		"sql": testQuerySQL, "params": []interface{}{400.0, 5},
	}, &qr); code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, qr.Error)
	}
	logged := buf.String()
	if !strings.Contains(logged, "slow query") {
		t.Fatalf("no slow-query line:\n%s", logged)
	}
	for _, want := range []string{"plan=", `\"op\":`, `\"depth_k\":`, `\"est_rows\":`, `\"drift\":`} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-query log missing %q:\n%s", want, logged)
		}
	}
}

// getJSONBody GETs a URL and decodes the JSON body, failing the test on
// any error or non-200.
func getJSONBody(t *testing.T, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
