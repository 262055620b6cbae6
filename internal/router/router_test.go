package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ranksql"
	"ranksql/internal/front"
	"ranksql/internal/server"
)

// cluster is an in-process sharded deployment: n shard servers plus a
// router, all over httptest.
type cluster struct {
	router *Router
	front  *httptest.Server
	dbs    []*ranksql.DB
}

// newCluster spins up n shards (each registered with scorers via reg)
// and a router in front of them.
func newCluster(t *testing.T, n int, reg func(*ranksql.DB) error) *cluster {
	t.Helper()
	c := &cluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		db := ranksql.Open()
		if reg != nil {
			if err := reg(db); err != nil {
				t.Fatal(err)
			}
		}
		s := server.New(db)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		c.dbs = append(c.dbs, db)
		urls[i] = ts.URL
	}
	r, err := New(urls)
	if err != nil {
		t.Fatal(err)
	}
	c.router = r
	c.front = httptest.NewServer(r.Handler())
	t.Cleanup(c.front.Close)
	return c
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
	Columns        []string        `json:"columns"`
	Rows           [][]interface{} `json:"rows"`
	Scores         []float64       `json:"scores"`
	Ranks          []int           `json:"ranks"`
	CacheHit       bool            `json:"cache_hit"`
	ResultCacheHit bool            `json:"result_cache_hit"`
	K              int             `json:"k"`
	Depth          int             `json:"depth"`
	Offset         int             `json:"offset"`
	Exhausted      bool            `json:"exhausted"`
	CursorID       string          `json:"cursor_id"`
	Merge          struct {
		Shards       int   `json:"shards"`
		ShardsPruned []int `json:"shards_pruned"`
		Refills      int   `json:"refills"`
		RowsFetched  int   `json:"rows_fetched"`
	} `json:"merge"`
	Stats struct {
		TuplesScanned int64 `json:"tuples_scanned"`
	} `json:"stats"`
	Error string `json:"error"`
}

// renderRow canonicalizes a result row for cross-representation
// comparison (JSON float64s vs engine values).
func renderRow(row []interface{}) string {
	parts := make([]string, len(row))
	for i, v := range row {
		switch x := v.(type) {
		case float64:
			parts[i] = fmt.Sprintf("%g", x)
		case int64:
			parts[i] = fmt.Sprintf("%g", float64(x))
		default:
			parts[i] = fmt.Sprintf("%v", v)
		}
	}
	return strings.Join(parts, "|")
}

// assertEquivalent checks a sharded top-k result against a single-node
// reference: identical score sequence, and within each tie group (run
// of equal scores) the same rows. Inside a tie group the single-node
// and merge tie-breaks may legally order rows differently, and a group
// cut off by the k boundary may resolve to any subset of its tied rows
// — so refDeep must be the single-node answer for a LIMIT comfortably
// past k (deep enough to cover the boundary group in full).
func assertEquivalent(t *testing.T, label string, refDeep *ranksql.Rows, k int, got *testQueryResponse) {
	t.Helper()
	if got.Error != "" {
		t.Fatalf("%s: router error: %s", label, got.Error)
	}
	depth := k
	if refDeep.Len() < depth {
		depth = refDeep.Len()
	}
	if len(got.Rows) != depth {
		t.Fatalf("%s: sharded returned %d rows, single-node top-%d has %d", label, len(got.Rows), k, depth)
	}
	for i := 0; i < depth; i++ {
		if math.Abs(got.Scores[i]-refDeep.Scores[i]) > 1e-9 {
			t.Fatalf("%s: score[%d] = %.12f sharded vs %.12f single-node", label, i, got.Scores[i], refDeep.Scores[i])
		}
	}
	refRow := func(r int) string {
		row := make([]interface{}, 0, len(refDeep.Columns))
		for _, v := range refDeep.At(r) {
			row = append(row, v.Any())
		}
		return renderRow(row)
	}
	for i := 0; i < depth; {
		// The reference tie group [i, j) of equal scores, beyond depth if
		// the k boundary cuts it.
		j := i + 1
		for j < refDeep.Len() && math.Abs(refDeep.Scores[j]-refDeep.Scores[i]) <= 1e-9 {
			j++
		}
		if j > depth && j == refDeep.Len() && !refDeep.Exhausted {
			t.Fatalf("%s: reference not deep enough to cover the boundary tie group", label)
		}
		end := j
		if end > depth {
			end = depth
		}
		want := map[string]int{}
		for r := i; r < j; r++ {
			want[refRow(r)]++
		}
		// The sharded rows of this group must be a sub-multiset of the
		// full reference group; for interior groups (j <= depth) the
		// sizes match, making that full multiset equality.
		for r := i; r < end; r++ {
			key := renderRow(got.Rows[r])
			if want[key] == 0 {
				t.Fatalf("%s: tie group [%d,%d): sharded row %q not among the single-node rows of score %.12f",
					label, i, j, key, refDeep.Scores[i])
			}
			want[key]--
		}
		i = end
	}
	if got.Depth < got.K && !got.Exhausted {
		t.Fatalf("%s: %d < k=%d rows but not marked exhausted", label, got.Depth, got.K)
	}
}

func TestRouterWebshopEndToEnd(t *testing.T) {
	const rows = 1200
	single := ranksql.Open()
	if err := server.Webshop.Seed(single, rows); err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 3, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}

	// Every shard got a piece, none got everything.
	totalShardRows := 0
	for i, db := range c.dbs {
		r, err := db.Query(`SELECT name FROM product LIMIT 100000`)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() == 0 || r.Len() == rows {
			t.Fatalf("shard %d holds %d of %d rows; expected a proper partition", i, r.Len(), rows)
		}
		totalShardRows += r.Len()
	}
	if totalShardRows != rows {
		t.Fatalf("shards hold %d rows in total, want %d", totalShardRows, rows)
	}

	const q = `SELECT name, price, stars, sales FROM product
		WHERE in_stock AND price < ?
		ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?`
	for _, k := range []int{1, 5, 25} {
		ref, err := single.QueryContext(t.Context(), q, 300, k+100)
		if err != nil {
			t.Fatal(err)
		}
		var got testQueryResponse
		postJSON(t, c.front.URL+"/query", map[string]interface{}{
			"sql": q, "params": []interface{}{300, k},
		}, &got)
		assertEquivalent(t, fmt.Sprintf("k=%d", k), ref, k, &got)
		if got.Merge.Shards != 3 {
			t.Fatalf("merge.shards = %d, want 3", got.Merge.Shards)
		}
	}

	// DML through the router: the new row must land on exactly one shard
	// and be visible in merged queries.
	var ex struct {
		RowsAffected int    `json:"rows_affected"`
		Error        string `json:"error"`
	}
	postJSON(t, c.front.URL+"/exec", map[string]interface{}{
		"sql":    `INSERT INTO product VALUES (?, ?, ?, ?, ?)`,
		"params": []interface{}{"ROUTED-ROW", 9.99, 5.0, 99999, true},
	}, &ex)
	if ex.Error != "" || ex.RowsAffected != 1 {
		t.Fatalf("routed insert: %+v", ex)
	}
	var found testQueryResponse
	postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": `SELECT name FROM product WHERE name = ? LIMIT 3`, "params": []interface{}{"ROUTED-ROW"},
	}, &found)
	if len(found.Rows) != 1 {
		t.Fatalf("routed row found %d times, want 1", len(found.Rows))
	}
}

// TestThresholdPruning pins the acceptance criterion: on a cluster whose
// shards hold far more rows than k, the threshold merge must finish
// without draining at least one shard, and /stats must say so.
func TestThresholdPruning(t *testing.T) {
	const rows = 2000
	c := newCluster(t, 4, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}
	var got testQueryResponse
	postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql":    `SELECT name, stars FROM product ORDER BY rating(stars) LIMIT ?`,
		"params": []interface{}{10},
	}, &got)
	if got.Error != "" {
		t.Fatalf("query: %s", got.Error)
	}
	if len(got.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(got.Rows))
	}
	if len(got.Merge.ShardsPruned) == 0 {
		t.Fatalf("no shard was pruned by the threshold bound (merge=%+v)", got.Merge)
	}
	if got.Merge.RowsFetched >= rows {
		t.Fatalf("merge fetched %d rows of %d; early termination did nothing", got.Merge.RowsFetched, rows)
	}

	var snap Snapshot
	resp, err := http.Get(c.front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.QueriesWithPrunedShards == 0 {
		t.Fatal("/stats shows no query with pruned shards")
	}
	if snap.ShardsPrunedTotal == 0 {
		t.Fatal("/stats shows no pruned shards")
	}
	if snap.Shards != 4 {
		t.Fatalf("/stats shards = %d, want 4", snap.Shards)
	}
}

// TestRouterConcurrentQueriesAndInserts exercises the fan-out/merge and
// partitioned-write paths under -race: concurrent clients with prepared
// statements while writers insert through the router.
func TestRouterConcurrentQueriesAndInserts(t *testing.T) {
	const rows = 1000
	c := newCluster(t, 2, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT name, price, stars, sales FROM product
		WHERE in_stock AND price < ?
		ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?`

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var ex struct {
					Error string `json:"error"`
				}
				postJSON(t, c.front.URL+"/exec", map[string]interface{}{
					"sql":    `INSERT INTO product VALUES (?, ?, ?, ?, ?)`,
					"params": []interface{}{fmt.Sprintf("W%d-%03d", w, i), 10 + float64(i), 4.5, 1000 * i, true},
				}, &ex)
				if ex.Error != "" {
					t.Errorf("writer %d insert %d: %s", w, i, ex.Error)
					return
				}
			}
		}(w)
	}
	for rdr := 0; rdr < 6; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			var prep struct {
				StmtID string `json:"stmt_id"`
				Error  string `json:"error"`
			}
			postJSON(t, c.front.URL+"/prepare", map[string]interface{}{"sql": q}, &prep)
			if prep.Error != "" {
				t.Errorf("reader %d prepare: %s", rdr, prep.Error)
				return
			}
			for i := 0; i < 25; i++ {
				k := 1 + i%10
				bound := 150 + float64((rdr*25+i)%8)*40
				var resp testQueryResponse
				postJSON(t, c.front.URL+"/query", map[string]interface{}{
					"stmt_id": prep.StmtID, "params": []interface{}{bound, k},
				}, &resp)
				if resp.Error != "" {
					t.Errorf("reader %d query %d: %s", rdr, i, resp.Error)
					return
				}
				if len(resp.Rows) > k {
					t.Errorf("reader %d: %d rows > k=%d", rdr, len(resp.Rows), k)
				}
				for j := 1; j < len(resp.Scores); j++ {
					if resp.Scores[j] > resp.Scores[j-1]+1e-9 {
						t.Errorf("reader %d: scores increase at %d", rdr, j)
						break
					}
				}
			}
		}(rdr)
	}
	wg.Wait()

	// Quiesced: identical queries agree, inserted rows visible.
	var a, b testQueryResponse
	postJSON(t, c.front.URL+"/query", map[string]interface{}{"sql": q, "params": []interface{}{500, 20}}, &a)
	postJSON(t, c.front.URL+"/query", map[string]interface{}{"sql": q, "params": []interface{}{500, 20}}, &b)
	if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
		t.Error("identical queries after quiescence disagree")
	}
	var cnt testQueryResponse
	postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": `SELECT name FROM product WHERE name = ? LIMIT 2`, "params": []interface{}{"W0-000"},
	}, &cnt)
	if len(cnt.Rows) != 1 {
		t.Errorf("inserted row W0-000 found %d times, want 1", len(cnt.Rows))
	}
}

// TestWriteTargets pins where each routed write goes on a 2-shard ×
// 2-replica cluster: an INSERT reaches each replica of the shard owning
// its row exactly once and the other shard not at all, DDL reaches every
// replica once, and a /load skips a shard owning none of its rows.
func TestWriteTargets(t *testing.T) {
	c := newReplicatedCluster(t, 2, 2, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", 100); err != nil {
		t.Fatal(err)
	}
	expect := func(label string, want [2][2]uint64, write func() int) {
		t.Helper()
		var before [2][2]uint64
		for s, sc := range c.router.shards {
			for r, rep := range sc.replicas {
				before[s][r] = rep.requests.Load()
			}
		}
		if code := write(); code != http.StatusOK {
			t.Fatalf("%s: status %d", label, code)
		}
		for s, sc := range c.router.shards {
			for r, rep := range sc.replicas {
				if got := rep.requests.Load() - before[s][r]; got != want[s][r] {
					t.Errorf("%s: shard %d replica %d received %d requests, want %d", label, s, r, got, want[s][r])
				}
			}
		}
	}
	exec := func(sqlText string, params ...interface{}) int {
		var ex struct {
			Error string `json:"error"`
		}
		return postJSON(t, c.front.URL+"/exec", map[string]interface{}{"sql": sqlText, "params": params}, &ex)
	}
	expect("single-row INSERT", [2][2]uint64{{1, 1}, {0, 0}}, func() int {
		return exec(`INSERT INTO product VALUES (?, ?, ?, ?, ?)`, ownedBy(0, 2, "WT-"), 9.99, 5.0, 1, true)
	})
	expect("DDL", [2][2]uint64{{1, 1}, {1, 1}}, func() int {
		return exec(`CREATE TABLE wt (name TEXT, s FLOAT)`)
	})
	expect("/load", [2][2]uint64{{0, 0}, {1, 1}}, func() int {
		resp, err := http.Post(c.front.URL+"/load?table=wt", "text/csv", strings.NewReader(
			ownedBy(1, 2, "A-")+",1\n"+ownedBy(1, 2, "B-")+",2\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	})
}

// TestShardReadIsOneQuery pins that the router keeps no statements on its
// shards: a read of a new parameterized template is one /query request
// carrying the fetch text, and no number of distinct templates fills a
// shard session's statement cap.
func TestShardReadIsOneQuery(t *testing.T) {
	c := newCluster(t, 1, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", 200); err != nil {
		t.Fatal(err)
	}
	rep := c.router.shards[0].replicas[0]
	query := func(sqlText string) {
		t.Helper()
		var got testQueryResponse
		if code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
			"sql": sqlText, "params": []interface{}{300.0, 5},
		}, &got); code != http.StatusOK {
			t.Fatalf("query status %d: %s", code, got.Error)
		}
	}

	before := rep.requests.Load()
	query(`SELECT name FROM product WHERE price < ? ORDER BY rating(stars) LIMIT ?`)
	if n := rep.requests.Load() - before; n != 1 {
		t.Errorf("one-shot of a new template sent %d shard requests, want 1", n)
	}

	for i := 0; i < 1100; i++ {
		query(fmt.Sprintf(`SELECT name FROM product WHERE price < ? AND sales > %d ORDER BY rating(stars) LIMIT ?`, i))
	}
	var prep struct {
		StmtID string `json:"stmt_id"`
		Error  string `json:"error"`
	}
	if code := postJSON(t, rep.base+"/prepare", map[string]interface{}{
		"sql": `SELECT name FROM product WHERE price < ? ORDER BY rating(stars) LIMIT ?`,
	}, &prep); code != http.StatusOK || prep.StmtID == "" {
		t.Fatalf("sessionless /prepare on the shard after 1100 router templates: status %d, error %q", code, prep.Error)
	}
}

// TestRouterStmtCap: the router's statement namespace is capped like a
// ranksqld session — 1024 handles, then 429 until /stmt/close frees one.
func TestRouterStmtCap(t *testing.T) {
	c := newCluster(t, 1, nil)
	type prepResp struct {
		StmtID string `json:"stmt_id"`
		Error  string `json:"error"`
	}
	prepare := func() (int, prepResp) {
		var out prepResp
		return postJSON(t, c.front.URL+"/prepare", map[string]interface{}{
			"sql": `SELECT name FROM product WHERE price < ? LIMIT ?`}, &out), out
	}
	var first string
	for i := 0; i < front.MaxStmtsPerSession; i++ {
		code, out := prepare()
		if code != http.StatusOK {
			t.Fatalf("prepare %d: status %d, error %q", i+1, code, out.Error)
		}
		if i == 0 {
			first = out.StmtID
		}
	}
	code, out := prepare()
	if code != http.StatusTooManyRequests || !strings.Contains(out.Error, "already holds 1024 prepared statements") {
		t.Fatalf("prepare past the cap: status %d, error %q; want 429", code, out.Error)
	}
	var closed struct {
		Closed bool `json:"closed"`
	}
	if code := postJSON(t, c.front.URL+"/stmt/close", map[string]interface{}{"stmt_id": first}, &closed); code != http.StatusOK || !closed.Closed {
		t.Fatalf("/stmt/close: status %d", code)
	}
	if code, out := prepare(); code != http.StatusOK {
		t.Fatalf("prepare after a close: status %d, error %q", code, out.Error)
	}
}

// TestRouterShardDown pins failure behavior: queries against a cluster
// with a dead shard fail with a clean 502 naming the shard, and /healthz
// reports degraded.
func TestRouterShardDown(t *testing.T) {
	c := newCluster(t, 2, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", 200); err != nil {
		t.Fatal(err)
	}
	// Kill shard 1's server.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(dead.Close)
	c.router.shards[1].replicas[0].base = dead.URL

	var got testQueryResponse
	code := postJSON(t, c.front.URL+"/query", map[string]interface{}{
		"sql": `SELECT name FROM product ORDER BY rating(stars) LIMIT 5`,
	}, &got)
	if code != http.StatusBadGateway {
		t.Fatalf("query with dead shard: status %d, want 502", code)
	}
	if !strings.Contains(got.Error, "shard 1") {
		t.Fatalf("error does not name the failing shard: %q", got.Error)
	}

	resp, err := http.Get(c.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead shard: status %d, want 503", resp.StatusCode)
	}
}
