package server

import (
	"context"
	"net/http"
	"time"

	"ranksql"
	"ranksql/internal/obs"
	"ranksql/internal/wire"
)

// cursorPinnedBytes sums the memory pinned by all open cursors'
// suspended state (buffered tuples plus parked pages). Closed cursors
// report 0, so the gauge falls as cursors close by any path — explicit
// close, TTL GC, or DDL invalidation.
func (s *Server) cursorPinnedBytes() int64 {
	var total int64
	for _, cur := range s.front.Streams() {
		total += cur.PinnedBytes()
	}
	return total
}

// page pulls one page of a registered cursor and answers with it:
// front.Spec.Page. skip rows are pulled first and dropped (after_rank).
func (s *Server) page(ctx context.Context, w http.ResponseWriter, trace *obs.Trace, id, norm string, cur *ranksql.Cursor, skip, n int) error {
	start := time.Now()
	endFetch := trace.StartSpan("cursor_fetch")
	var err error
	if skip > 0 {
		_, err = cur.FetchContext(ctx, skip)
	}
	var rows *ranksql.Rows
	if err == nil {
		rows, err = cur.FetchContext(ctx, n)
	}
	endFetch()
	if err != nil {
		return err
	}
	s.writePage(w, trace, norm, id, cur.Pulled()-rows.Len(), cur.PinnedBytes(), rows, time.Since(start))
	return nil
}

// writePage records and answers one pulled page of a ranked stream — a
// one-shot /query (cursorID "", offset 0) or a cursor page alike. The
// row payload is encoded straight from the engine values into a pooled
// buffer (wire.WriteQueryResponse): no boxed [][]interface{} detour
// through encoding/json.
func (s *Server) writePage(w http.ResponseWriter, trace *obs.Trace, norm, cursorID string, offset int, pinned int64, rows *ranksql.Rows, elapsed time.Duration) {
	elapsedMS := float64(elapsed) / float64(time.Millisecond)
	what := "query"
	attrs := []any{
		"trace", trace.ID, "query", norm, "elapsed_ms", elapsedMS,
		"rows", rows.Len(), "cache_hit", rows.CacheHit,
	}
	if cursorID != "" {
		what = "cursor page"
		attrs = append(attrs, "cursor", cursorID, "pinned_bytes", pinned)
	}
	rec := s.metrics.recordPage(what, norm, trace.ID, elapsed, rows, pinned, append(attrs, trace.SpanAttrs()...))

	resp := wire.QueryResponse{
		Columns:   rows.Columns,
		CacheHit:  rows.CacheHit,
		K:         rows.K,
		Depth:     rows.Len(),
		Offset:    offset,
		CursorID:  cursorID,
		Exhausted: rows.Exhausted,
		Stats:     wire.StatsFrom(rows.Stats),
		ElapsedMS: elapsedMS,
		TraceID:   trace.ID,
	}
	if rec != nil {
		resp.DepthKReached, resp.MaxDriftRatio = rec.DepthK, rec.MaxDriftRatio
	}
	wire.WriteQueryResponse(w, &resp, rows)
}
