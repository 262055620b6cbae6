package router

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
		if err := server.Webshop.RegisterScorers(db); err != nil {
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
	// lag(price) is bargain's score, computed after a 100µs sleep while
	// slow is set: the test picks which requests miss their budget. A
	// sleep, not a busy wait, so the in-process shards cannot starve the
	// router's deadline timer on a small machine.
	var slow atomic.Bool
	for _, db := range c.dbs {
		if err := db.RegisterScorer("lag", func(args []ranksql.Value) float64 {
			if slow.Load() {
				time.Sleep(100 * time.Microsecond)
			}
			return math.Max(0, 1-args[0].Float()/500)
		}); err != nil {
			t.Fatal(err)
		}
	}
	const lagQuerySQL = `SELECT name, price, stars, sales FROM product
		WHERE in_stock AND price < ?
		ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*lag(price) LIMIT ?`
	slow.Store(true)
	var qr testQueryResponse
	code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": lagQuerySQL, "params": []interface{}{300.0, 50}, "deadline_ms": 1,
	}, &qr)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (err=%q)", code, qr.Error)
	}
	if !strings.Contains(qr.Error, "deadline_ms") {
		t.Errorf("error %q should name the deadline", qr.Error)
	}
	slow.Store(false)
	// A generous budget leaves fast queries untouched.
	code = postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": lagQuerySQL, "params": []interface{}{300.0, 5}, "deadline_ms": 60000,
	}, &qr)
	if code != http.StatusOK {
		t.Fatalf("status with slack deadline = %d: %s", code, qr.Error)
	}

	// A cursor page obeys the same budget, and the cursor survives it: the
	// same cursor_id serves the page, from the right rank, once given time.
	var page, slowPage, next testQueryResponse
	postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": lagQuerySQL, "params": []interface{}{300.0, 5}, "cursor": true, "fetch": 5}, &page)
	if page.Error != "" || page.CursorID == "" {
		t.Fatalf("cursor open: error %q, cursor_id %q", page.Error, page.CursorID)
	}
	slow.Store(true)
	code = postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page.CursorID, "fetch": 50, "deadline_ms": 1}, &slowPage)
	if code != http.StatusGatewayTimeout || !strings.Contains(slowPage.Error, "deadline_ms") {
		t.Fatalf("slow cursor page: status %d, error %q; want 504 naming the deadline", code, slowPage.Error)
	}
	slow.Store(false)
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

	// A cursor open whose first page misses its budget answers no
	// cursor_id, so no client could close the cursor: neither the router
	// nor any shard may keep one for it. A shard notices the dropped
	// request only after the router has answered, so poll briefly.
	var closed testQueryResponse
	postJSON(t, c.front.URL+"/cursor/close", map[string]interface{}{"cursor_id": page.CursorID}, &closed)
	slow.Store(true)
	defer slow.Store(false)
	var open testQueryResponse
	code = postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": lagQuerySQL, "params": []interface{}{300.0, 50}, "cursor": true, "fetch": 50, "deadline_ms": 1}, &open)
	if code != http.StatusGatewayTimeout || open.CursorID != "" {
		t.Fatalf("slow cursor open: status %d, cursor_id %q, error %q; want 504 and no cursor_id", code, open.CursorID, open.Error)
	}
	daemons := []string{c.front.URL}
	for _, sc := range c.router.shards {
		daemons = append(daemons, sc.addr())
	}
	for _, u := range daemons {
		for give := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			var st struct {
				Cursors struct {
					Open int `json:"open"`
				} `json:"cursors"`
			}
			getInsightJSON(t, u+"/stats", &st)
			if st.Cursors.Open == 0 {
				break
			}
			if time.Now().After(give) {
				t.Errorf("%s /stats cursors.open = %d after the failed open, want 0", u, st.Cursors.Open)
				break
			}
		}
	}
}

// TestMetricNamesStable pins the router's observable names: every
// /metrics series with its TYPE, and every key the /stats payload can
// carry, flattened to dotted paths ("[]" marks array elements). A rename
// in either view breaks dashboards and the benchmark's /stats reader
// silently, so it must show up here as a diff against these lists.
func TestMetricNamesStable(t *testing.T) {
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

	wantSeries := []string{
		"ranksql_router_build_info gauge",
		"ranksql_router_cursor_hits_total counter",
		"ranksql_router_cursor_misses_total counter",
		"ranksql_router_cursor_replica_resumes_total counter",
		"ranksql_router_cursors_expired_total gauge",
		"ranksql_router_cursors_opened_total counter",
		"ranksql_router_errors_total counter",
		"ranksql_router_execs_total counter",
		"ranksql_router_hedges_issued_total counter",
		"ranksql_router_hedges_lost_total counter",
		"ranksql_router_hedges_won_total counter",
		"ranksql_router_insight_high_drift_total gauge",
		"ranksql_router_insight_records_total gauge",
		"ranksql_router_insight_records_with_estimates_total gauge",
		"ranksql_router_insight_ring_depth gauge",
		"ranksql_router_loads_total counter",
		"ranksql_router_open_cursors gauge",
		"ranksql_router_queries_total counter",
		"ranksql_router_queries_with_pruned_shards_total counter",
		"ranksql_router_query_duration_seconds histogram",
		"ranksql_router_refills_total counter",
		"ranksql_router_result_cache_entries gauge",
		"ranksql_router_result_cache_hits_total counter",
		"ranksql_router_result_cache_misses_total counter",
		"ranksql_router_rows_fetched_total counter",
		"ranksql_router_rows_returned_total counter",
		"ranksql_router_shard_failovers_total counter",
		"ranksql_router_shards_pruned_total counter",
		"ranksql_router_slow_queries_total counter",
		"ranksql_router_timeouts_total counter",
		"ranksql_router_tuples_materialized_total counter",
		"ranksql_router_tuples_scanned_total counter",
		"ranksql_router_uptime_seconds gauge",
	}
	wantStats := []string{
		"avg_query_ms", "build", "build.git_sha", "build.go_version", "build.version",
		"cursors", "cursors.expired_total", "cursors.hits_total", "cursors.misses_total",
		"cursors.open", "cursors.opened_total",
		"errors", "execs", "fetch_amplification",
		"insight", "insight.high_drift_records", "insight.records", "insight.records_with_estimates",
		"insight.ring_capacity", "insight.ring_depth",
		"latency", "latency.count", "latency.mean_ms", "latency.p50_ms", "latency.p95_ms", "latency.p99_ms",
		"loads",
		"per_query", "per_query[].avg_latency_ms", "per_query[].count", "per_query[].errors",
		"per_query[].query", "per_query[].refills", "per_query[].rows_fetched_from_shards",
		"per_query[].rows_returned", "per_query[].shards_pruned",
		"queries", "queries_with_pruned_shards", "refills_total",
		"reliability", "reliability.cursor_replica_resumes", "reliability.failovers",
		"reliability.hedges_issued", "reliability.hedges_lost", "reliability.hedges_won",
		"result_cache", "result_cache.capacity", "result_cache.entries", "result_cache.evictions",
		"result_cache.hit_rate", "result_cache.hits", "result_cache.misses", "result_cache.stale",
		"rows_fetched_total", "rows_returned_total",
		"shard_health", "shard_health[].base_url", "shard_health[].healthy", "shard_health[].id",
		"shard_health[].replicas", "shard_health[].replicas[].base_url", "shard_health[].replicas[].failures",
		"shard_health[].replicas[].healthy", "shard_health[].replicas[].index", "shard_health[].replicas[].requests",
		"shards", "shards_pruned_total", "slow_queries", "timeouts",
		"tuples_materialized_total", "tuples_scanned_total", "uptime_seconds",
	}
	assertNames(t, "/metrics series", seriesTypes(t, c.router.Registry(), c.front.URL), wantSeries)
	assertNames(t, "/stats keys", statsKeys(t, c.front.URL), wantStats)
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
	getInsightJSON(t, base+"/stats", &v)
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

// TestErrorsCountedAlike: the same bad request counts once in errors_total
// and answers the same status whether a shard or the router answers it —
// errors means the same thing on both tiers.
func TestErrorsCountedAlike(t *testing.T) {
	c := newCluster(t, 2, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", 200); err != nil {
		t.Fatal(err)
	}
	load := func(t *testing.T, base, table, csv string) int {
		resp, err := http.Post(base+"/load?table="+table, "text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	var out testQueryResponse
	cases := []struct {
		name string
		do   func(t *testing.T, base string) int
	}{
		{"SELECT via /exec", func(t *testing.T, base string) int {
			return postJSON(t, base+"/exec", map[string]interface{}{
				"sql": obsQuerySQL, "params": []interface{}{300.0, 5}}, &out)
		}},
		{"wrong param count on /exec", func(t *testing.T, base string) int {
			return postJSON(t, base+"/exec", map[string]interface{}{
				"sql": `INSERT INTO product VALUES (?, ?, ?, ?, ?)`, "params": []interface{}{"x"}}, &out)
		}},
		{"/load of an unknown table", func(t *testing.T, base string) int {
			return load(t, base, "no_such_table", "a,1\n")
		}},
		{"/load of a short CSV row", func(t *testing.T, base string) int {
			return load(t, base, "product", "only-one-cell\n")
		}},
		{"non-scalar parameter on /query", func(t *testing.T, base string) int {
			return postJSON(t, base+"/query", map[string]interface{}{
				"sql": obsQuerySQL, "params": []interface{}{map[string]interface{}{"x": 1}, 5}}, &out)
		}},
		{"cursor rewind", func(t *testing.T, base string) int {
			var page testQueryResponse
			postJSON(t, base+"/query", map[string]interface{}{
				"sql": obsQuerySQL, "params": []interface{}{300.0, 50}, "cursor": true, "fetch": 5}, &page)
			if page.CursorID == "" {
				t.Fatalf("cursor open: %q", page.Error)
			}
			postJSON(t, base+"/cursor/next", map[string]interface{}{"cursor_id": page.CursorID, "fetch": 5}, &out)
			return postJSON(t, base+"/cursor/next", map[string]interface{}{
				"cursor_id": page.CursorID, "fetch": 5, "after_rank": 2}, &out)
		}},
	}
	errorsAt := func(base string) uint64 {
		var s struct {
			Errors uint64 `json:"errors"`
		}
		getInsightJSON(t, base+"/stats", &s)
		return s.Errors
	}
	tiers := []struct{ name, url string }{
		{"shard", c.router.shards[0].replicas[0].base},
		{"router", c.front.URL},
	}
	for _, tc := range cases {
		codes := make([]int, len(tiers))
		for i, tier := range tiers {
			before := errorsAt(tier.url)
			if codes[i] = tc.do(t, tier.url); codes[i] < 400 {
				t.Errorf("%s on the %s: status %d, want an error", tc.name, tier.name, codes[i])
			}
			if got := errorsAt(tier.url) - before; got != 1 {
				t.Errorf("%s on the %s: errors +%d, want +1", tc.name, tier.name, got)
			}
		}
		if codes[0] != codes[1] {
			t.Errorf("%s: status %d on the shard, %d on the router; want the same", tc.name, codes[0], codes[1])
		}
	}
}
