package router

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ranksql"
	"ranksql/internal/flakyproxy"
	"ranksql/internal/obs/insight"
	"ranksql/internal/server"
	"ranksql/internal/wire"
)

// rcluster is an in-process deployment with replicated shards: shards x
// replicas backend servers plus a router configured with one replica
// group per shard.
type rcluster struct {
	router  *Router
	front   *httptest.Server
	servers [][]*httptest.Server // [shard][replica]
	dbs     [][]*ranksql.DB
}

// newReplicatedCluster spins up shards x replicas backends and a router
// whose shard specs group each shard's replicas. Seeding through the
// router (SeedVia) replicates every shard's partition to all its copies.
func newReplicatedCluster(t *testing.T, shards, replicas int, reg func(*ranksql.DB) error) *rcluster {
	t.Helper()
	c := &rcluster{}
	specs := make([]string, shards)
	for s := 0; s < shards; s++ {
		var srvs []*httptest.Server
		var dbs []*ranksql.DB
		var urls []string
		for rp := 0; rp < replicas; rp++ {
			db := ranksql.Open()
			if reg != nil {
				if err := reg(db); err != nil {
					t.Fatal(err)
				}
			}
			ts := httptest.NewServer(server.New(db).Handler())
			t.Cleanup(ts.Close)
			srvs = append(srvs, ts)
			dbs = append(dbs, db)
			urls = append(urls, ts.URL)
		}
		c.servers = append(c.servers, srvs)
		c.dbs = append(c.dbs, dbs)
		specs[s] = strings.Join(urls, ",")
	}
	r, err := New(specs)
	if err != nil {
		t.Fatal(err)
	}
	c.router = r
	c.front = httptest.NewServer(r.Handler())
	t.Cleanup(c.front.Close)
	return c
}

// kill terminates a backend server hard: in-flight connections are
// severed, new dials are refused.
func kill(ts *httptest.Server) {
	ts.CloseClientConnections()
	ts.Close()
}

const failoverQuerySQL = `SELECT name, price, stars, sales FROM product
	WHERE in_stock AND price < ?
	ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?`

// TestReplicaFailoverZeroFailures pins the acceptance criterion: with 2
// replicas per shard, killing one replica in the middle of a concurrent
// read workload yields zero failed queries, and every answer stays
// identical to the single-node oracle.
func TestReplicaFailoverZeroFailures(t *testing.T) {
	const rows = 800
	single := ranksql.Open()
	if err := server.SeedWebshop(single, rows); err != nil {
		t.Fatal(err)
	}
	c := newReplicatedCluster(t, 2, 2, server.RegisterWebshopScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}

	// Replication sanity: each shard's copies hold the same partition.
	for s := range c.dbs {
		var sizes []int
		for _, db := range c.dbs[s] {
			r, err := db.Query(`SELECT name FROM product LIMIT 100000`)
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, r.Len())
		}
		if sizes[0] == 0 || sizes[0] != sizes[1] {
			t.Fatalf("shard %d replicas diverge: %v rows", s, sizes)
		}
	}

	bounds := []float64{150, 190, 230, 270, 310, 350, 390, 430}
	const maxK = 10
	refs := map[float64]*ranksql.Rows{}
	for _, b := range bounds {
		ref, err := single.QueryContext(context.Background(), failoverQuerySQL, b, maxK+100)
		if err != nil {
			t.Fatal(err)
		}
		refs[b] = ref
	}

	type result struct {
		bound float64
		k     int
		code  int
		resp  testQueryResponse
	}
	const readers, perReader = 4, 24
	results := make([][]result, readers)
	reached := make(chan struct{}, readers)
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		results[rd] = make([]result, perReader)
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				if i == perReader/2 {
					// Barrier: everyone pauses halfway while the main
					// goroutine kills shard 0's first replica, so each
					// reader's second half runs against the degraded set.
					reached <- struct{}{}
					<-proceed
				}
				res := result{bound: bounds[(rd*perReader+i)%len(bounds)], k: 1 + (rd+i)%maxK}
				res.code = postJSON(t, c.front.URL+"/query", map[string]interface{}{
					"sql": failoverQuerySQL, "params": []interface{}{res.bound, res.k},
				}, &res.resp)
				results[rd][i] = res
			}
		}(rd)
	}
	for rd := 0; rd < readers; rd++ {
		<-reached
	}
	kill(c.servers[0][0])
	close(proceed)
	wg.Wait()

	failed := 0
	for rd := range results {
		for i, res := range results[rd] {
			if res.code != http.StatusOK || res.resp.Error != "" {
				failed++
				t.Errorf("reader %d query %d (bound %v, k %d): status %d, error %q",
					rd, i, res.bound, res.k, res.code, res.resp.Error)
				continue
			}
			assertEquivalent(t, fmt.Sprintf("reader %d query %d (bound %v, k %d)", rd, i, res.bound, res.k),
				refs[res.bound], res.k, &res.resp)
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d queries failed across the replica kill; want 0", failed, readers*perReader)
	}

	// A fresh-bindings query (never cached) must fan out and succeed on
	// the surviving replica; the failover shows up in /stats, and the
	// cluster still reports healthy — every shard has a live copy.
	var fresh testQueryResponse
	if code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": failoverQuerySQL, "params": []interface{}{9999.0, 5},
	}, &fresh); code != http.StatusOK || fresh.Error != "" {
		t.Fatalf("post-kill query: status %d, error %q", code, fresh.Error)
	}
	var snap Snapshot
	getInsightJSON(t, c.front.URL+"/stats", &snap)
	if snap.Reliability.Failovers == 0 {
		t.Error("/stats reliability.failovers = 0 after killing a replica mid-workload")
	}
	resp, err := http.Get(c.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d with one replica down per shard quorum intact, want 200", resp.StatusCode)
	}
}

// TestMisbehavingShardClassification pins the status-check fix: a shard
// (or the proxy in front of it) answering 500 HTML, truncated JSON, or
// a structured SQL error must produce a classified error — never a
// zero-value "success" decoded from garbage.
func TestMisbehavingShardClassification(t *testing.T) {
	cases := []struct {
		name          string
		handler       http.HandlerFunc
		wantRetryable bool
		wantContains  string
	}{
		{
			name: "500 with HTML body",
			handler: func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/html")
				w.WriteHeader(http.StatusInternalServerError)
				fmt.Fprint(w, "<html><body><h1>Internal Server Error</h1></body></html>")
			},
			wantRetryable: true,
			wantContains:  "500",
		},
		{
			name: "200 with truncated JSON",
			handler: func(w http.ResponseWriter, _ *http.Request) {
				fmt.Fprint(w, `{"rows": [[1, 2`)
			},
			wantRetryable: true,
			wantContains:  "decoding shard response",
		},
		{
			name: "400 with SQL error body",
			handler: func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				fmt.Fprint(w, `{"error": "unknown table nope"}`)
			},
			wantRetryable: false,
			wantContains:  "unknown table nope",
		},
		{
			name: "503 with JSON error body",
			handler: func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"error": "shutting down"}`)
			},
			wantRetryable: true,
			wantContains:  "shutting down",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			rep := &replica{base: srv.URL, http: srv.Client()}
			var out wire.QueryResponse
			err := rep.postJSON(context.Background(), "/query", "", map[string]interface{}{"sql": "SELECT 1"}, &out)
			if err == nil {
				t.Fatalf("misbehaving response decoded as success: %+v", out)
			}
			if retryable(err) != tc.wantRetryable {
				t.Errorf("retryable(%q) = %v, want %v", err, retryable(err), tc.wantRetryable)
			}
			if !strings.Contains(err.Error(), tc.wantContains) {
				t.Errorf("error %q does not contain %q", err, tc.wantContains)
			}
			if len(out.Rows) != 0 {
				t.Errorf("rows leaked out of a failed call: %v", out.Rows)
			}
		})
	}

	// On /cursor/next the status alone says what happened to the shard's
	// cursor, whatever the body's words: 404 means the shard lost it, so
	// the router re-opens it and serves the page; 409 means its snapshot
	// is dead, so the router answers 409 and closes its own cursor.
	t.Run("cursor/next 404 with a reworded body", func(t *testing.T) {
		c := newSkewCluster(t, nil, failFirst("/cursor/next", http.StatusNotFound, `{"error": "cursor handle unknown to this shard"}`))
		_, code, both := c.secondSkewPage(t, 4)
		if code != http.StatusOK {
			t.Fatalf("page across the 404: status %d, error %q; want 200", code, both.Error)
		}
		assertEquivalent(t, "pages across the 404", skewRef(t, 13), 8, both)
	})
	t.Run("cursor/next 409 with a reworded body", func(t *testing.T) {
		c := newSkewCluster(t, nil, failFirst("/cursor/next", http.StatusConflict, `{"error": "snapshot no longer valid"}`))
		if _, code, both := c.secondSkewPage(t, 4); code != http.StatusConflict {
			t.Fatalf("page across the 409: status %d, error %q; want 409", code, both.Error)
		}
		if n := c.router.cursors.Len(); n != 0 {
			t.Errorf("open router cursors after the 409 = %d, want 0", n)
		}
		if n, _ := c.shardCursors(t); n != 0 {
			t.Errorf("shards hold %d cursors after the 409, want 0", n)
		}
	})
}

// TestConnectionReuseAfterErrorResponse pins the drain fix: after a
// non-2xx response the body is drained before close, so the next call
// reuses the keep-alive connection instead of dialing again.
func TestConnectionReuseAfterErrorResponse(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error": "transient shard hiccup with a body worth draining"}`)
			return
		}
		fmt.Fprint(w, `{"rows": [], "columns": []}`)
	}))
	defer srv.Close()
	rep := &replica{base: srv.URL, http: srv.Client()}

	var reused atomic.Bool
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused.Store(true)
			}
		},
	})
	var out wire.QueryResponse
	if err := rep.postJSON(ctx, "/query", "", map[string]interface{}{"sql": "SELECT 1"}, &out); err == nil {
		t.Fatal("first call should fail with the 500")
	}
	if err := rep.postJSON(ctx, "/query", "", map[string]interface{}{"sql": "SELECT 1"}, &out); err != nil {
		t.Fatalf("second call: %v", err)
	}
	if !reused.Load() {
		t.Error("second call dialed a fresh connection; the error body was not drained before close")
	}
}

// TestLoadEscapesTableName pins the query-escape fix: a table name with
// URL-reserved characters survives the /load round-trip intact.
func TestLoadEscapesTableName(t *testing.T) {
	const table = "sales figures+2024/q1&q2"
	var got atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.URL.Query().Get("table"))
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"rows_loaded": 2}`)
	}))
	defer srv.Close()
	rep := &replica{base: srv.URL, http: srv.Client()}
	n, err := rep.load(context.Background(), table, []byte("a,b\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("rows loaded = %d, want 2", n)
	}
	if name, _ := got.Load().(string); name != table {
		t.Errorf("shard decoded table %q, want %q", name, table)
	}
}

// TestExecDeadlinePropagates pins the context-threading fix: a
// deadline_ms budget on /exec cancels the in-flight shard call instead
// of letting a hung shard stall the fan-out indefinitely.
func TestExecDeadlinePropagates(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"rows_affected": 0}`)
	}))
	defer slow.Close()
	defer close(release) // LIFO: unblock the parked handler before Close waits on it
	r, err := New([]string{slow.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	start := time.Now()
	var out struct {
		Error string `json:"error"`
	}
	code := postJSON(t, front.URL+"/exec", map[string]interface{}{
		"sql": server.WebshopDDL, "deadline_ms": 80,
	}, &out)
	elapsed := time.Since(start)
	if code == http.StatusOK || out.Error == "" {
		t.Fatalf("exec against a hung shard: status %d, error %q; want a failure", code, out.Error)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("exec took %v; the deadline_ms budget did not cancel the shard call", elapsed)
	}
}

// TestFailoverToSecondReplica: a dead preferred replica fails the call
// over to the live one, marks the failover in metrics, and moves the
// read preference.
func TestFailoverToSecondReplica(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	kill(dead)
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"rows": [], "columns": []}`)
	}))
	defer live.Close()

	m := newMetrics()
	sc := &shardClient{id: 0, m: m, replicas: []*replica{
		{idx: 0, base: dead.URL, http: http.DefaultClient},
		{idx: 1, base: live.URL, http: live.Client()},
	}}
	out, err := shardRead(context.Background(), sc, func(ctx context.Context, rep *replica) (*wire.QueryResponse, error) {
		return rep.page(ctx, "/query", "", &wire.Request{SQL: "SELECT 1"})
	})
	if err != nil || out == nil {
		t.Fatalf("read with one dead replica: %v", err)
	}
	if m.failovers.Value() == 0 {
		t.Error("failover not counted")
	}
	if sc.preferredIdx() != 1 {
		t.Errorf("preferred replica = %d after failover, want 1", sc.preferredIdx())
	}
	if sc.replicas[0].failures.Load() == 0 {
		t.Error("dead replica's failure not counted")
	}
}

// TestHedgedReadPrefersFastReplica: with hedging armed, a stalled
// preferred replica loses the race to the hedge on the second replica.
func TestHedgedReadPrefersFastReplica(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(500 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"rows": [], "columns": []}`)
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"rows": [], "columns": []}`)
	}))
	defer fast.Close()

	m := newMetrics()
	sc := &shardClient{id: 0, m: m, hedgeDelay: 25 * time.Millisecond, replicas: []*replica{
		{idx: 0, base: slow.URL, http: slow.Client()},
		{idx: 1, base: fast.URL, http: fast.Client()},
	}}
	start := time.Now()
	out, err := shardRead(context.Background(), sc, func(ctx context.Context, rep *replica) (*wire.QueryResponse, error) {
		return rep.page(ctx, "/query", "", &wire.Request{SQL: "SELECT 1"})
	})
	elapsed := time.Since(start)
	if err != nil || out == nil {
		t.Fatalf("hedged read: %v", err)
	}
	if elapsed >= 400*time.Millisecond {
		t.Errorf("hedged read took %v; the hedge did not cut the stall short", elapsed)
	}
	if m.hedgesIssued.Value() != 1 || m.hedgesWon.Value() != 1 {
		t.Errorf("hedges issued/won = %d/%d, want 1/1", m.hedgesIssued.Value(), m.hedgesWon.Value())
	}
	if sc.preferredIdx() != 1 {
		t.Errorf("preferred replica = %d after a won hedge, want 1", sc.preferredIdx())
	}
}

// TestResultCacheServesWithoutFanout pins the acceptance criterion: a
// repeated (template, bindings, k) is served from the router's result
// cache with zero shard HTTP calls, and both write paths invalidate it
// (any routed row-count change; any DDL via the schema version).
func TestResultCacheServesWithoutFanout(t *testing.T) {
	c := newCluster(t, 2, server.RegisterWebshopScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", 400); err != nil {
		t.Fatal(err)
	}
	shardRequests := func() uint64 {
		var n uint64
		for _, sc := range c.router.shards {
			for _, rep := range sc.replicas {
				n += rep.requests.Load()
			}
		}
		return n
	}
	runQuery := func() testQueryResponse {
		t.Helper()
		var resp testQueryResponse
		if code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
			"sql": failoverQuerySQL, "params": []interface{}{300.0, 5},
		}, &resp); code != http.StatusOK || resp.Error != "" {
			t.Fatalf("query: status %d, error %q", code, resp.Error)
		}
		return resp
	}

	first := runQuery()
	if first.ResultCacheHit {
		t.Fatal("first query reported a result-cache hit")
	}
	base := shardRequests()
	second := runQuery()
	if !second.ResultCacheHit {
		t.Fatal("repeated query not served from the result cache")
	}
	if got := shardRequests(); got != base {
		t.Fatalf("cache hit issued %d shard HTTP calls, want 0", got-base)
	}
	if fmt.Sprint(first.Rows) != fmt.Sprint(second.Rows) || fmt.Sprint(first.Scores) != fmt.Sprint(second.Scores) {
		t.Fatal("cached answer differs from the merged answer")
	}

	var snap Snapshot
	getInsightJSON(t, c.front.URL+"/stats", &snap)
	if snap.ResultCache == nil || snap.ResultCache.Hits == 0 {
		t.Fatalf("/stats result_cache = %+v, want recorded hits", snap.ResultCache)
	}
	// A hit is a served query like any other: it reaches the insight ring.
	var w insight.Workload
	getInsightJSON(t, c.front.URL+"/insight/workload", &w)
	if w.RecordsObserved != snap.Queries {
		t.Errorf("/insight/workload records_observed = %d, /stats queries = %d; want equal",
			w.RecordsObserved, snap.Queries)
	}

	// Any routed row-count change invalidates: results caches answers,
	// not plans, so there is no staleness factor to hide behind.
	var ex struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, c.front.URL+"/exec", map[string]interface{}{
		"sql":    `INSERT INTO product VALUES (?, ?, ?, ?, ?)`,
		"params": []interface{}{"CACHE-BUSTER", 9.99, 5.0, 999999, true},
	}, &ex); code != http.StatusOK || ex.Error != "" {
		t.Fatalf("insert: status %d, error %q", code, ex.Error)
	}
	third := runQuery()
	if third.ResultCacheHit {
		t.Fatal("query after an INSERT still served from the result cache")
	}
	found := false
	for _, row := range third.Rows {
		if strings.Contains(renderRow(row), "CACHE-BUSTER") {
			found = true
		}
	}
	if !found {
		t.Error("freshly inserted top row missing from the post-invalidation answer")
	}

	// DDL bumps the schema version; every cached answer minted before it
	// becomes unreachable.
	fourth := runQuery()
	if !fourth.ResultCacheHit {
		t.Fatal("query not re-cached after the invalidating insert")
	}
	if code := postJSON(t, c.front.URL+"/exec", map[string]interface{}{
		"sql": server.WebshopRankIndexDDL[0],
	}, &ex); code != http.StatusOK || ex.Error != "" {
		t.Fatalf("ddl: status %d, error %q", code, ex.Error)
	}
	fifth := runQuery()
	if fifth.ResultCacheHit {
		t.Fatal("query after DDL still served from the result cache")
	}
}

// TestCursorResumesOnReplicaFailure: a routed cursor pinned to a
// replica that dies mid-pagination re-opens the shard streams on the
// surviving replicas at the depth already merged, whose prefix they
// extend — the next page is exactly the oracle's continuation.
func TestCursorResumesOnReplicaFailure(t *testing.T) {
	const rows = 600
	single := ranksql.Open()
	if err := server.SeedWebshop(single, rows); err != nil {
		t.Fatal(err)
	}
	c := newReplicatedCluster(t, 2, 2, server.RegisterWebshopScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}
	ref, err := single.QueryContext(context.Background(), failoverQuerySQL, 300, 60)
	if err != nil {
		t.Fatal(err)
	}

	var page1 testQueryResponse
	if code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": failoverQuerySQL, "params": []interface{}{300.0, 40},
		"cursor": true, "fetch": 5,
	}, &page1); code != http.StatusOK || page1.Error != "" || page1.CursorID == "" {
		t.Fatalf("cursor open: status %d, %+v", code, page1)
	}
	assertScorePrefix(t, "page 1", ref.Scores[:5], page1.Scores)

	// Kill the replica every shard stream is pinned to (index 0: the
	// initial read preference, untouched by the write-only seeding).
	kill(c.servers[0][0])
	kill(c.servers[1][0])

	var page2 testQueryResponse
	if code := postJSON(t, c.front.URL+"/cursor/next", map[string]interface{}{
		"cursor_id": page1.CursorID, "fetch": 5,
	}, &page2); code != http.StatusOK || page2.Error != "" {
		t.Fatalf("cursor next across replica death: status %d, error %q", code, page2.Error)
	}
	assertScorePrefix(t, "page 2", ref.Scores[5:10], page2.Scores)

	var snap Snapshot
	getInsightJSON(t, c.front.URL+"/stats", &snap)
	if snap.Reliability.CursorReplicaResumes == 0 {
		t.Error("/stats reliability.cursor_replica_resumes = 0 after a pinned replica died")
	}
}

// assertScorePrefix checks a page's score sequence against the oracle's
// slice for those ranks (rows inside tie groups may legally differ; the
// score sequence may not).
func assertScorePrefix(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("%s: score[%d] = %.12f, oracle has %.12f", label, i, got[i], want[i])
		}
	}
}

// TestFlakyReplicaWorkload drives the merge through a flaky proxy that
// drops and corrupts a deterministic fraction of one replica's
// responses: every query must still succeed and match the single-node
// oracle. flakyIters scales the workload up under -tags slowtests.
func TestFlakyReplicaWorkload(t *testing.T) {
	const rows = 500
	single := ranksql.Open()
	if err := server.SeedWebshop(single, rows); err != nil {
		t.Fatal(err)
	}
	c := newReplicatedCluster(t, 2, 2, server.RegisterWebshopScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}

	// Seed cleanly first, then interpose the saboteur in front of each
	// shard's first replica (writes fan out to all replicas; a dropped
	// write would fail the load, which is not what this test is about).
	proxies := make([]*flakyproxy.Proxy, len(c.servers))
	for s := range c.servers {
		p := flakyproxy.New(c.servers[s][0].URL,
			flakyproxy.WithSeed(0xBAD5EED+int64(s)),
			flakyproxy.WithDrop(0.15),
			flakyproxy.WithCorrupt(0.10))
		pf := httptest.NewServer(p)
		t.Cleanup(pf.Close)
		c.router.shards[s].replicas[0].base = pf.URL
		proxies[s] = p
	}

	bounds := []float64{150, 200, 250, 300, 350, 400}
	refs := map[float64]*ranksql.Rows{}
	for _, b := range bounds {
		ref, err := single.QueryContext(context.Background(), failoverQuerySQL, b, 8+100)
		if err != nil {
			t.Fatal(err)
		}
		refs[b] = ref
	}
	for i := 0; i < flakyIters; i++ {
		// Re-point the read preference at the sabotaged replica so the
		// proxy stays in the line of fire even after failovers move it.
		for _, sc := range c.router.shards {
			sc.preferred.Store(0)
		}
		b := bounds[i%len(bounds)]
		k := 1 + i%8
		var got testQueryResponse
		if code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
			"sql": failoverQuerySQL, "params": []interface{}{b, k},
		}, &got); code != http.StatusOK || got.Error != "" {
			t.Fatalf("query %d (bound %v, k %d) through flaky replica: status %d, error %q", i, b, k, code, got.Error)
		}
		assertEquivalent(t, fmt.Sprintf("flaky query %d (bound %v, k %d)", i, b, k), refs[b], k, &got)
	}

	var sabotaged uint64
	for _, p := range proxies {
		sabotaged += p.Dropped() + p.Corrupted()
	}
	if sabotaged == 0 {
		t.Error("the flaky proxies sabotaged nothing; the workload did not exercise failover")
	}
}
