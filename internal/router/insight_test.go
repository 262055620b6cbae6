package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"ranksql/internal/obs"
	"ranksql/internal/obs/insight"
	"ranksql/internal/server"
)

// getInsightJSON GETs a router endpoint and decodes the JSON body.
func getInsightJSON(t *testing.T, url string, out interface{}) {
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

// TestRouterInsightEndpoints: the router records every merged query and
// serves /insight/workload and /insight/templates with per-shard
// attribution (rows fetched, pruning) and shard-reported drift.
func TestRouterInsightEndpoints(t *testing.T) {
	c := newCluster(t, 2, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", 300); err != nil {
		t.Fatal(err)
	}
	// Force shard-side profiling so every shard response carries its
	// depth of enumeration and drift ratio for the router to attribute.
	for _, db := range c.dbs {
		db.SetProfileSampling(1)
	}

	// Distinct bindings per iteration: identical (template, bindings, k)
	// repeats would be served from the router's result cache with no
	// shard fan-out, and fan-outs are what this test attributes.
	for i := 0; i < 3; i++ {
		var qr testQueryResponse
		if code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
			"sql": obsQuerySQL, "params": []interface{}{300.0 + float64(i), 5},
		}, &qr); code != http.StatusOK {
			t.Fatalf("query status %d: %s", code, qr.Error)
		}
	}

	var w insight.Workload
	getInsightJSON(t, c.front.URL+"/insight/workload", &w)
	if w.RingDepth != 3 || w.RecordsObserved != 3 {
		t.Errorf("ring depth/observed = %d/%d, want 3/3", w.RingDepth, w.RecordsObserved)
	}
	if w.RowsReturned != 15 {
		t.Errorf("rows_returned = %d, want 15 (3 queries x k=5)", w.RowsReturned)
	}
	if w.TuplesScanned <= 0 {
		t.Errorf("tuples_scanned = %d, want > 0", w.TuplesScanned)
	}
	if w.RecordsWithEstimates != 3 {
		t.Errorf("records_with_estimates = %d, want 3 (shards profiled every run)", w.RecordsWithEstimates)
	}
	if len(w.Templates) != 1 || w.Templates[0].Count != 3 {
		t.Errorf("templates = %+v, want one template with count 3", w.Templates)
	}

	var tr struct {
		Templates []insight.TemplateProfile `json:"templates"`
	}
	getInsightJSON(t, c.front.URL+"/insight/templates", &tr)
	if len(tr.Templates) != 1 {
		t.Fatalf("got %d template profiles, want 1", len(tr.Templates))
	}
	p := tr.Templates[0]
	if p.Count != 3 {
		t.Errorf("count = %d, want 3", p.Count)
	}
	if p.DepthKMax <= 0 {
		t.Errorf("depth_k_max = %d, want > 0", p.DepthKMax)
	}
	if len(p.Shards) != 2 {
		t.Fatalf("shard attribution = %+v, want both shards", p.Shards)
	}
	var fetched int64
	for i, sp := range p.Shards {
		if sp.Shard != i {
			t.Errorf("shards[%d].Shard = %d, want ascending shard ids", i, sp.Shard)
		}
		if sp.Queries != 3 {
			t.Errorf("shard %d queries = %d, want 3", sp.Shard, sp.Queries)
		}
		fetched += sp.RowsFetched
	}
	if fetched <= 0 {
		t.Errorf("total rows fetched across shards = %d, want > 0", fetched)
	}
	if p.Drift == nil {
		t.Fatal("profile missing drift (profiled shards report drift ratios)")
	}
	if !strings.HasPrefix(p.Drift.WorstNode, "shard") {
		t.Errorf("worst node = %q, want a shardN attribution", p.Drift.WorstNode)
	}

	for _, path := range []string{"/insight/workload", "/insight/templates"} {
		resp, err := http.Post(c.front.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestRouterInsightMetricsAndStats: the router's /metrics and /stats
// carry the insight gauges, tuple-traffic counters, and build info.
func TestRouterInsightMetricsAndStats(t *testing.T) {
	c := newCluster(t, 2, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", 200); err != nil {
		t.Fatal(err)
	}
	var qr testQueryResponse
	if code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": obsQuerySQL, "params": []interface{}{300.0, 5},
	}, &qr); code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, qr.Error)
	}

	resp, err := http.Get(c.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"ranksql_router_insight_ring_depth 1",
		"ranksql_router_insight_records_total 1",
		"ranksql_router_tuples_scanned_total",
		"ranksql_router_tuples_materialized_total",
		`ranksql_router_build_info{version=`,
		"ranksql_router_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var stats Snapshot
	getInsightJSON(t, c.front.URL+"/stats", &stats)
	if stats.Build.Version == "" || stats.Build.GoVersion == "" {
		t.Errorf("stats build info = %+v, want populated", stats.Build)
	}
	if stats.Insight.Records != 1 || stats.Insight.RingDepth != 1 {
		t.Errorf("stats insight = %+v, want 1 record", stats.Insight)
	}
	if stats.TuplesScannedTotal == 0 {
		t.Error("stats tuples_scanned_total = 0, want > 0")
	}
}

// TestRouterCursorCloseTrace: closing a routed cursor with a trace ID
// echoes it on the response and propagates it to the shard closes.
func TestRouterCursorCloseTrace(t *testing.T) {
	c := newCluster(t, 2, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", 200); err != nil {
		t.Fatal(err)
	}
	var page testQueryResponse
	if code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": obsQuerySQL, "params": []interface{}{300.0, 5},
		"cursor": true, "fetch": 5,
	}, &page); code != http.StatusOK || page.CursorID == "" {
		t.Fatalf("cursor open: status %d, %+v", code, page)
	}

	const traceID = "0ddba11c0ffee000"
	body, _ := json.Marshal(map[string]interface{}{"cursor_id": page.CursorID})
	req, _ := http.NewRequest(http.MethodPost, c.front.URL+"/cursor/close", bytes.NewReader(body))
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
