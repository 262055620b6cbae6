// Package wire defines the HTTP/JSON protocol ranksqld speaks, once, for
// everything that speaks it: the single-node server encodes it, the
// sharding router decodes it from its shards and answers its own clients
// with it. It hides the schema — field names, order, omitempty rules, how
// JSON numbers bind to parameters — so a field added here reaches every
// tier or none. Both daemons also serve through its one listener loop
// (ServeListener) and pprof mount.
//
// Every query answer is one page of a ranked stream: rows in
// non-increasing score order with contiguous 1-based ranks starting at
// offset+1, and an exhausted marker bounding what is still to come. A
// one-shot /query is page one of a stream nobody kept; a cursor page
// carries the cursor_id that resumes it.
package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ranksql"
)

// Request is the envelope shared by every POST endpoint.
type Request struct {
	SQL       string        `json:"sql,omitempty"`
	SessionID string        `json:"session_id,omitempty"`
	StmtID    string        `json:"stmt_id,omitempty"`
	Params    []interface{} `json:"params,omitempty"`
	// PartitionKey names the column a CREATE TABLE sent through the router
	// hash-partitions on (default: the first column). Servers ignore it.
	PartitionKey string `json:"partition_key,omitempty"`
	// DeadlineMS is a per-request execution budget in milliseconds: a
	// query still running when it expires is cancelled, the request fails
	// with 504, and the timeout is counted as its own metric. The router
	// forwards the remaining budget to each shard fetch.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Cursor asks /query to keep the ranked stream open: the response is
	// its first page plus a cursor_id for /cursor/next.
	Cursor bool `json:"cursor,omitempty"`
	// CursorID names an open cursor (/cursor/next, /cursor/close).
	CursorID string `json:"cursor_id,omitempty"`
	// Fetch is the page size for cursor opens and pulls (default: the
	// statement's LIMIT, else 10).
	Fetch int `json:"fetch,omitempty"`
	// AfterRank makes /cursor/next fast-forward the stream so the page
	// starts at rank after_rank+1 (streams cannot rewind).
	AfterRank int `json:"after_rank,omitempty"`
}

// Context derives the request's execution context: parent, bounded by
// the deadline_ms budget when one was sent.
func (r *Request) Context(parent context.Context) (context.Context, context.CancelFunc) {
	if r.DeadlineMS <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, time.Duration(r.DeadlineMS)*time.Millisecond)
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// QueryStats is the per-request execution counter payload. On cursor
// pages (and router answers, which sum their shards') the counters are
// cumulative over the stream so far.
type QueryStats struct {
	TuplesScanned int64   `json:"tuples_scanned"`
	PredEvals     int64   `json:"pred_evals"`
	Comparisons   int64   `json:"comparisons"`
	JoinProbes    int64   `json:"join_probes"`
	PeakBuffered  int64   `json:"peak_buffered"`
	Materialized  int64   `json:"tuples_materialized"`
	PredCostUnits float64 `json:"pred_cost_units"`
}

// StatsFrom converts an execution's counters to their wire form.
func StatsFrom(s ranksql.Stats) QueryStats {
	return QueryStats{
		TuplesScanned: s.TuplesScanned,
		PredEvals:     s.PredEvals,
		Comparisons:   s.Comparisons,
		JoinProbes:    s.JoinProbes,
		PeakBuffered:  s.PeakBuffered,
		Materialized:  s.Materialized,
		PredCostUnits: s.PredCostUnits,
	}
}

// Add accumulates o into s.
func (s *QueryStats) Add(o QueryStats) {
	s.TuplesScanned += o.TuplesScanned
	s.PredEvals += o.PredEvals
	s.Comparisons += o.Comparisons
	s.JoinProbes += o.JoinProbes
	s.PeakBuffered += o.PeakBuffered
	s.Materialized += o.Materialized
	s.PredCostUnits += o.PredCostUnits
}

// MergeInfo is the router-only block of a query response: what the
// threshold merge did across the cluster for this page.
type MergeInfo struct {
	Shards       int   `json:"shards"`
	ShardsPruned []int `json:"shards_pruned"`
	Refills      int   `json:"refills"`
	RowsFetched  int   `json:"rows_fetched"`
}

// QueryResponse is one page of a ranked stream, as answered by /query
// and /cursor/next on both daemons. AppendQueryResponse (encode.go)
// mirrors its field order and omitempty tags byte for byte.
type QueryResponse struct {
	Columns []string        `json:"columns"`
	Rows    [][]interface{} `json:"rows"`
	Scores  []float64       `json:"scores"`
	// Ranks[i] is row i's 1-based position in the query's stable total
	// order (score desc, then the engine's deterministic insertion
	// tie-break; the router orders equal scores by shard index first).
	// Cursor pages continue the numbering across pulls, so paginated
	// clients can stitch pages into one ranked feed.
	Ranks []int `json:"ranks"`
	// CacheHit means the plan came from the plan cache (on the router:
	// from every shard's). ResultCacheHit is router-only: the answer came
	// from its ranked-result cache with zero shard fan-out (CacheHit is
	// also set then — no shard had to plan anything).
	CacheHit       bool `json:"cache_hit"`
	ResultCacheHit bool `json:"result_cache_hit,omitempty"`
	// K is the top-k bound the page ran under (0 = no LIMIT); Depth the
	// number of ranked rows produced (== len(rows)).
	K     int `json:"k"`
	Depth int `json:"depth"`
	// Offset is the number of rows the stream delivered before this page
	// (0 for one-shots); CursorID is set on pages of a kept stream.
	Offset   int    `json:"offset,omitempty"`
	CursorID string `json:"cursor_id,omitempty"`
	// Exhausted marks that the ranked stream ran dry at this page: no rows
	// exist beyond the returned ones. When false the stream was cut off by
	// the page size, and a deeper pull could surface more rows — the
	// signal the router uses to bound a shard's remaining scores.
	Exhausted bool       `json:"exhausted"`
	Stats     QueryStats `json:"stats"`
	// Merge is set by the router only.
	Merge *MergeInfo `json:"merge,omitempty"`
	// DepthKReached and MaxDriftRatio are filled on engine-profiled
	// executions (every profile-every-th run of a template): the depth of
	// enumeration actually reached and the worst est-vs-actual
	// cardinality miss across plan nodes. The router folds them into its
	// per-shard insight attribution without re-profiling.
	DepthKReached int64   `json:"depth_k,omitempty"`
	MaxDriftRatio float64 `json:"max_drift_ratio,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	TraceID       string  `json:"trace_id,omitempty"`
	// Error is never sent with a page; it lets a client decode an
	// ErrorResponse body into the struct it decodes pages into.
	Error string `json:"error,omitempty"`
}

// Post wraps a handler with method filtering and envelope decoding.
func Post(h func(http.ResponseWriter, *http.Request, *Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		var req Request
		dec := json.NewDecoder(r.Body)
		dec.UseNumber()
		// An empty body is an empty request (POST /session has no fields).
		if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		h(w, r, &req)
	}
}

// WriteJSON answers with v encoded by encoding/json.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // a failed write means the client left
}

// DecodeParams converts decoded request parameters into the Go scalars
// they bind as: numbers (json.Number under Post's UseNumber) without a
// fraction or exponent become int64 — so LIMIT and integer-column
// comparisons behave — and the rest float64; null, booleans and strings
// pass through.
func DecodeParams(params []interface{}) ([]interface{}, error) {
	if len(params) == 0 {
		return nil, nil
	}
	out := make([]interface{}, len(params))
	for i, p := range params {
		switch v := p.(type) {
		case nil, bool, string:
			out[i] = v
		case json.Number:
			var err error
			if strings.ContainsAny(v.String(), ".eE") {
				out[i], err = v.Float64()
			} else {
				out[i], err = v.Int64()
			}
			if err != nil {
				return nil, fmt.Errorf("param %d: %v", i, err)
			}
		default:
			return nil, fmt.Errorf("param %d: unsupported JSON type %T (use scalars)", i, p)
		}
	}
	return out, nil
}

// WriteError answers a failed request: code with an ErrorResponse body.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorResponse{Error: msg})
}
