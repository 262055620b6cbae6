package wire_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ranksql"
	"ranksql/internal/server"
	"ranksql/internal/wire"
)

const testQuerySQL = `SELECT name, price, stars, sales FROM product
	WHERE in_stock AND price < ?
	ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?`

// boxedResponse rebuilds the response the way the pre-pooled encoder did:
// box every engine value through Value.Any into [][]interface{} and let
// encoding/json serialize the whole struct. The hand encoder must match
// this byte for byte (including the Encoder's trailing newline) so the
// wire format is provably unchanged.
func boxedResponse(t *testing.T, resp wire.QueryResponse, rows *ranksql.Rows) string {
	t.Helper()
	resp.Rows = make([][]interface{}, 0, rows.Len())
	resp.Ranks = make([]int, 0, rows.Len())
	resp.Scores = rows.Scores
	for i := 0; i < rows.Len(); i++ {
		vals := rows.At(i)
		row := make([]interface{}, len(vals))
		for j, v := range vals {
			row[j] = v.Any()
		}
		resp.Rows = append(resp.Rows, row)
		resp.Ranks = append(resp.Ranks, resp.Offset+i+1)
	}
	if resp.Scores == nil {
		resp.Scores = []float64{}
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

func TestAppendQueryResponseMatchesEncodingJSON(t *testing.T) {
	db := ranksql.Open()
	if err := server.Webshop.Seed(db, 200); err != nil {
		t.Fatal(err)
	}
	// Values that exercise every scalar kind plus string escaping.
	if _, err := db.Exec("CREATE TABLE odd (label TEXT, num FLOAT, cnt INT, ok BOOL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO odd VALUES ('quote " <html> & \ done', 0.0000001, -42, false)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO odd VALUES (NULL, 12345678901234567890.0, 0, true)`); err != nil {
		t.Fatal(err)
	}

	queries := []struct {
		sql      string
		params   []interface{}
		offset   int // > 0 with cursorID: the input is a cursor page
		cursorID string
	}{
		{sql: testQuerySQL, params: []interface{}{400.0, 10}},
		{sql: `SELECT label, num, cnt, ok FROM odd`},
		{sql: `SELECT name FROM product WHERE price < 0`}, // empty result
		{sql: testQuerySQL, params: []interface{}{400.0, 10}, offset: 20, cursorID: "cur-7"},
	}
	for _, q := range queries {
		rows, err := db.QueryContext(context.Background(), q.sql, q.params...)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		resp := wire.QueryResponse{
			Columns:   rows.Columns,
			CacheHit:  rows.CacheHit,
			K:         rows.K,
			Depth:     rows.Len(),
			Offset:    q.offset,
			CursorID:  q.cursorID,
			Exhausted: rows.Exhausted,
			Stats:     wire.StatsFrom(rows.Stats),
			ElapsedMS: 1.52,
			TraceID:   "t-abc123",
		}
		want := boxedResponse(t, resp, rows)
		got := string(wire.AppendQueryResponse(nil, &resp, rows))
		if got != want {
			t.Errorf("%s:\n got  %s\n want %s", q.sql, got, want)
		}
	}
}

// TestAppendQueryResponseOmitempty checks the optional fields appear and
// disappear exactly as encoding/json's omitempty tags dictate.
func TestAppendQueryResponseOmitempty(t *testing.T) {
	db := ranksql.Open()
	if err := server.Webshop.Seed(db, 50); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT name FROM product LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	resp := wire.QueryResponse{
		Columns:       rows.Columns,
		Depth:         rows.Len(),
		Offset:        7,
		CursorID:      "cur-9",
		DepthKReached: 33,
		MaxDriftRatio: 1.25,
		ElapsedMS:     0.5,
	}
	want := boxedResponse(t, resp, rows)
	got := string(wire.AppendQueryResponse(nil, &resp, rows))
	if got != want {
		t.Errorf("with optionals:\n got  %s\n want %s", got, want)
	}
	for _, field := range []string{"offset", "cursor_id", "depth_k", "max_drift_ratio"} {
		if !strings.Contains(got, `"`+field+`"`) {
			t.Errorf("optional field %q missing when set", field)
		}
	}

	resp = wire.QueryResponse{Columns: rows.Columns, Depth: rows.Len(), ElapsedMS: 0.5}
	want = boxedResponse(t, resp, rows)
	got = string(wire.AppendQueryResponse(nil, &resp, rows))
	if got != want {
		t.Errorf("without optionals:\n got  %s\n want %s", got, want)
	}
	for _, field := range []string{"offset", "cursor_id", "depth_k", "max_drift_ratio", "trace_id"} {
		if strings.Contains(got, `"`+field+`"`) {
			t.Errorf("optional field %q present when zero", field)
		}
	}
}

// TestServerPagesDecodeStrictly guards against wire drift: what a server
// really answers — a one-shot /query, a profiled one, a cursor's first
// and second page — must decode, unknown fields disallowed, into the
// QueryResponse the router's shard client decodes into, and every field must survive the round trip: re-encoding the
// decoded struct reproduces the server's bytes.
func TestServerPagesDecodeStrictly(t *testing.T) {
	db := ranksql.Open()
	if err := server.Webshop.Seed(db, 200); err != nil {
		t.Fatal(err)
	}
	db.SetProfileSampling(1) // every execution carries depth_k / max_drift_ratio
	h := server.New(db).Handler()
	post := func(path, body string) *wire.QueryResponse {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("X-Ranksql-Trace", "t-drift")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", path, body, rec.Code, rec.Body)
		}
		var resp wire.QueryResponse
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		dec.UseNumber() // numbers re-encode verbatim
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("%s: the server sent something wire.QueryResponse lacks: %v\n%s", path, err, rec.Body)
		}
		again, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(again)+"\n", rec.Body.String(); got != want {
			t.Errorf("%s: a field did not round-trip:\n sent    %s re-encoded %s", path, want, got)
		}
		return &resp
	}
	const query = `"sql": "SELECT name, price FROM product WHERE price < ? ORDER BY rating(stars) LIMIT ?", "params": [400.0, 5]`
	one := post("/query", `{`+query+`}`)
	if one.DepthKReached == 0 || one.TraceID != "t-drift" || len(one.Ranks) != 5 || one.Offset != 0 || one.CursorID != "" {
		t.Errorf("one-shot decoded as %+v", one)
	}
	first := post("/query", `{`+query+`, "cursor": true, "fetch": 5}`)
	if first.CursorID == "" {
		t.Fatalf("cursor open decoded without cursor_id: %+v", first)
	}
	second := post("/cursor/next", `{"cursor_id": "`+first.CursorID+`", "fetch": 5}`)
	if second.Offset != 5 || len(second.Ranks) != 5 || second.Ranks[0] != 6 || second.CursorID != first.CursorID {
		t.Errorf("second page decoded as %+v", second)
	}
}
