package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ranksql"
	"ranksql/internal/raceflag"
)

// benchServer seeds a webshop database and returns its handler plus a
// prepared statement ID, so benchmarks can drive the exact serve path
// (template hit, no network) through both the stmt_id and ad-hoc routes.
func benchServer(tb testing.TB) (http.Handler, string) {
	tb.Helper()
	db := ranksql.Open()
	db.SetProfileSampling(0)
	if err := Seed(db, "webshop", 1000); err != nil {
		tb.Fatal(err)
	}
	s := New(db)
	h := s.Handler()

	body := `{"sql": "SELECT name, price, stars, sales FROM product WHERE in_stock AND price < ? ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?"}`
	req := httptest.NewRequest(http.MethodPost, "/prepare", bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("prepare: %d %s", rec.Code, rec.Body)
	}
	var out struct {
		StmtID string `json:"stmt_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		tb.Fatal(err)
	}
	return h, out.StmtID
}

func benchQueryOnce(tb testing.TB, h http.Handler, body []byte) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
}

// BenchmarkServeTemplateHitPrepared is the wire-to-wire template-hit
// serve path for a prepared statement: decode request, resolve stmt,
// bind params, cache-hit execute, encode response.
func BenchmarkServeTemplateHitPrepared(b *testing.B) {
	h, stmtID := benchServer(b)
	body := []byte(`{"stmt_id": "` + stmtID + `", "params": [400, 10]}`)
	benchQueryOnce(b, h, body) // warm the plan cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("query: %d %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkServeTemplateHitAdhoc sends the SQL text itself each request:
// the serve path additionally lexes, parses and normalizes before the
// cache lookup (the full parse -> normalize -> hit -> rebind -> encode
// pipeline of the zero-alloc rework).
func BenchmarkServeTemplateHitAdhoc(b *testing.B) {
	h, _ := benchServer(b)
	body := []byte(`{"sql": "SELECT name, price, stars, sales FROM product WHERE in_stock AND price < ? ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?", "params": [400, 10]}`)
	benchQueryOnce(b, h, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("query: %d %s", rec.Code, rec.Body)
		}
	}
}

// cursorSession walks one client cursor session through h: a cursor
// opened on the prepared statement with fetch=10, two /cursor/next
// pages, then /cursor/close.
func cursorSession(tb testing.TB, h http.Handler, open []byte) {
	serve := func(path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var page struct {
		CursorID string `json:"cursor_id"`
	}
	if err := json.Unmarshal(serve("/query", open), &page); err != nil {
		tb.Fatal(err)
	}
	next := []byte(`{"cursor_id": "` + page.CursorID + `"}`)
	serve("/cursor/next", next)
	serve("/cursor/next", next)
	serve("/cursor/close", next)
}

func cursorSessionOpen(stmtID string) []byte {
	return []byte(`{"stmt_id": "` + stmtID + `", "params": [400, 10], "cursor": true, "fetch": 10}`)
}

// BenchmarkServeCursorSession prices the client-handle path of a ranked
// cursor end to end through Handler(): resolve, register, three page
// pulls and the close.
func BenchmarkServeCursorSession(b *testing.B) {
	h, stmtID := benchServer(b)
	open := cursorSessionOpen(stmtID)
	cursorSession(b, h, open) // warm the plan cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cursorSession(b, h, open)
	}
}

// cursorSessionAllocBudget caps one BenchmarkServeCursorSession
// iteration, measured at ~1 060 allocs/op, with headroom for pool
// refills after a GC cycle.
const cursorSessionAllocBudget = 1100

func TestCursorSessionAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc budgets are meaningless under -race: sync.Pool drops puts")
	}
	h, stmtID := benchServer(t)
	open := cursorSessionOpen(stmtID)
	cursorSession(t, h, open)
	if allocs := testing.AllocsPerRun(50, func() { cursorSession(t, h, open) }); allocs > cursorSessionAllocBudget {
		t.Errorf("cursor session: %.1f allocs/op, budget %d", allocs, cursorSessionAllocBudget)
	}
}
