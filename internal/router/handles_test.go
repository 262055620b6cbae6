package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"ranksql/internal/server"
)

// TestHandleProtocolAcrossTiers sends the same client-handle requests to
// a shard and to the router and requires the same status and, once ids
// and timestamps are masked, the same error text: sessions, prepared
// statements and cursors are served by one implementation on both.
func TestHandleProtocolAcrossTiers(t *testing.T) {
	const ttl = time.Second
	c := newCursorCluster(t, 1, []server.Option{server.WithSessionTTL(ttl)}, []Option{WithSessionTTL(ttl)})
	if err := SeedVia(nil, c.front.URL, "webshop", 200); err != nil {
		t.Fatal(err)
	}
	tiers := []struct{ name, url string }{{"shard", c.shardURLs[0]}, {"router", c.front.URL}}

	call := func(t *testing.T, url string, req map[string]interface{}) (int, map[string]interface{}) {
		t.Helper()
		var out map[string]interface{}
		return postJSON(t, url, req, &out), out
	}
	str := func(out map[string]interface{}, key string) string {
		s, _ := out[key].(string)
		return s
	}
	session := func(t *testing.T, base string) string {
		t.Helper()
		code, out := call(t, base+"/session", map[string]interface{}{})
		if code != http.StatusOK || str(out, "session_id") == "" {
			t.Fatalf("/session: status %d, %v", code, out)
		}
		return str(out, "session_id")
	}
	prepare := func(t *testing.T, base, sess string) (int, map[string]interface{}) {
		t.Helper()
		return call(t, base+"/prepare", map[string]interface{}{"session_id": sess, "sql": cursorTestQuery})
	}

	// Two cursors per tier, left idle past the TTL: the next access to
	// each table collects them.
	swept := make([][2]string, len(tiers))
	for i, tier := range tiers {
		for j := range swept[i] {
			code, page := call(t, tier.url+"/query", map[string]interface{}{
				"sql": cursorTestQuery, "params": []interface{}{300.0, 5}, "cursor": true, "fetch": 5})
			if code != http.StatusOK {
				t.Fatalf("%s cursor open: status %d, %v", tier.name, code, page)
			}
			swept[i][j] = str(page, "cursor_id")
		}
	}
	time.Sleep(ttl + ttl/2)

	cases := []struct {
		name string
		want int
		do   func(t *testing.T, tier int, base string) (int, string)
	}{
		{"prepare and query in a minted session", http.StatusOK, func(t *testing.T, _ int, base string) (int, string) {
			sess := session(t, base)
			code, prep := prepare(t, base, sess)
			if code != http.StatusOK {
				return code, str(prep, "error")
			}
			var page testQueryResponse
			code = postJSON(t, base+"/query", map[string]interface{}{
				"session_id": sess, "stmt_id": str(prep, "stmt_id"), "params": []interface{}{300.0, 5}}, &page)
			if code == http.StatusOK && len(page.Rows) != 5 {
				t.Errorf("query by stmt_id: %d rows, want 5", len(page.Rows))
			}
			return code, page.Error
		}},
		{"stmt_id from another session", http.StatusNotFound, func(t *testing.T, _ int, base string) (int, string) {
			_, prep := prepare(t, base, session(t, base))
			code, out := call(t, base+"/query", map[string]interface{}{
				"session_id": session(t, base), "stmt_id": str(prep, "stmt_id"), "params": []interface{}{300.0, 5}})
			return code, str(out, "error")
		}},
		{"/session/close of an unknown id", http.StatusNotFound, func(t *testing.T, _ int, base string) (int, string) {
			code, out := call(t, base+"/session/close", map[string]interface{}{"session_id": "sess-bogus"})
			return code, str(out, "error")
		}},
		{"/stmt/close of an unknown id", http.StatusNotFound, func(t *testing.T, _ int, base string) (int, string) {
			code, out := call(t, base+"/stmt/close", map[string]interface{}{"session_id": session(t, base), "stmt_id": "stmt-bogus"})
			return code, str(out, "error")
		}},
		{"statement cap in a minted session", http.StatusTooManyRequests, func(t *testing.T, _ int, base string) (int, string) {
			sess := session(t, base)
			for i := 0; i < 1024; i++ {
				if code, out := prepare(t, base, sess); code != http.StatusOK {
					t.Fatalf("prepare %d: status %d, %v", i+1, code, out)
				}
			}
			code, out := prepare(t, base, sess)
			return code, str(out, "error")
		}},
		{"/cursor/next of an unknown id", http.StatusNotFound, func(t *testing.T, _ int, base string) (int, string) {
			code, out := call(t, base+"/cursor/next", map[string]interface{}{"cursor_id": "cur-bogus"})
			return code, str(out, "error")
		}},
		{"/cursor/close of an unknown id", http.StatusNotFound, func(t *testing.T, _ int, base string) (int, string) {
			code, out := call(t, base+"/cursor/close", map[string]interface{}{"cursor_id": "cur-bogus"})
			return code, str(out, "error")
		}},
		{"/cursor/next of a TTL-swept id", http.StatusNotFound, func(t *testing.T, tier int, base string) (int, string) {
			code, out := call(t, base+"/cursor/next", map[string]interface{}{"cursor_id": swept[tier][0]})
			return code, str(out, "error")
		}},
		{"/cursor/close of a TTL-swept id", http.StatusNotFound, func(t *testing.T, tier int, base string) (int, string) {
			code, out := call(t, base+"/cursor/close", map[string]interface{}{"cursor_id": swept[tier][1]})
			return code, str(out, "error")
		}},
	}
	ids := regexp.MustCompile(`(sess|stmt|cur)-\d+`)
	stamp := regexp.MustCompile(`\(at [^)]*\)`)
	mask := func(s string) string {
		s = strings.ReplaceAll(s, `"rcur-`, `"cur-`)
		return stamp.ReplaceAllString(ids.ReplaceAllString(s, "$1-N"), "(at T)")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var codes [2]int
			var errs [2]string
			for i, tier := range tiers {
				codes[i], errs[i] = tc.do(t, i, tier.url)
				if codes[i] != tc.want {
					t.Errorf("%s: status %d (error %q), want %d", tier.name, codes[i], errs[i], tc.want)
				}
			}
			if codes[0] != codes[1] || mask(errs[0]) != mask(errs[1]) {
				t.Errorf("tiers differ:\nshard  %d %q\nrouter %d %q", codes[0], errs[0], codes[1], errs[1])
			}
		})
	}
}

// TestRouterRefusesExplain: EXPLAIN through the router is refused with a
// 400, as set operations are, instead of running the SELECT and
// answering with its rows.
func TestRouterRefusesExplain(t *testing.T) {
	c := newCluster(t, 2, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", 50); err != nil {
		t.Fatal(err)
	}
	const sel = `SELECT name FROM product ORDER BY rating(stars) LIMIT 5`
	for _, src := range []string{"EXPLAIN " + sel, "EXPLAIN ANALYZE " + sel} {
		for _, path := range []string{"/query", "/prepare"} {
			var out testQueryResponse
			code := postJSON(t, c.front.URL+path, map[string]interface{}{"sql": src}, &out)
			if code != http.StatusBadRequest || !strings.Contains(out.Error, "EXPLAIN") {
				t.Errorf("%s %q: status %d, error %q, %d rows; want 400 naming EXPLAIN", path, src, code, out.Error, len(out.Rows))
			}
		}
	}
}

// TestRouterIntCellsExact: an INT above 2^53 comes back from the router
// exactly as the shard stored it — as a one-shot, as a result-cache hit
// and as a cursor page — not rounded through a float64.
func TestRouterIntCellsExact(t *testing.T) {
	c := newCluster(t, 2, server.Webshop.RegisterScorers)
	for _, stmt := range []string{
		`CREATE TABLE big (id INT, stars FLOAT)`,
		`INSERT INTO big VALUES (9007199254740993, 4.5), (7, 1.0)`,
	} {
		var out struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, c.front.URL+"/exec", map[string]interface{}{"sql": stmt}, &out); code != http.StatusOK {
			t.Fatalf("%s: status %d, %s", stmt, code, out.Error)
		}
	}
	const sel = `SELECT id FROM big ORDER BY rating(stars) LIMIT 2`
	read := func(label string, req map[string]interface{}, cacheHit bool) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(c.front.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var page struct {
			Rows           [][]json.Number `json:"rows"`
			ResultCacheHit bool            `json:"result_cache_hit"`
			Error          string          `json:"error"`
		}
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber()
		if err := dec.Decode(&page); err != nil || page.Error != "" {
			t.Fatalf("%s: %v %s", label, err, page.Error)
		}
		if page.ResultCacheHit != cacheHit {
			t.Errorf("%s: result_cache_hit %v, want %v", label, page.ResultCacheHit, cacheHit)
		}
		if len(page.Rows) != 2 || page.Rows[0][0] != "9007199254740993" {
			t.Errorf("%s: rows %v, want 9007199254740993 first", label, page.Rows)
		}
	}
	read("one-shot", map[string]interface{}{"sql": sel}, false)
	read("result-cache hit", map[string]interface{}{"sql": sel}, true)
	read("cursor page", map[string]interface{}{"sql": sel, "cursor": true, "fetch": 2}, false)
}
