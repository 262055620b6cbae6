package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ranksql"
	"ranksql/internal/obs"
	"ranksql/internal/wire"
)

// serverCursor is one client-visible resumable ranked stream: the
// engine cursor plus the bookkeeping the wire protocol needs (default
// page size, the template for metrics attribution). Open cursors live
// in an idle.Table under the session TTL; a collected one's operator
// tree is released and later requests naming it get "expired".
type serverCursor struct {
	mu       sync.Mutex // serializes pulls on this cursor
	cur      *ranksql.Cursor
	norm     string // normalized template, for per-template metrics
	pageSize int    // default fetch size for /cursor/next
}

const (
	// maxOpenCursors bounds concurrently open cursors server-wide: each
	// one pins a suspended operator tree (heaps, frontiers, buffered
	// tuples), so clients that never /cursor/close cannot grow memory
	// without limit.
	maxOpenCursors = 4096
	// defaultCursorPage is the fetch size when neither the request nor
	// the statement's LIMIT suggests one.
	defaultCursorPage = 10
)

// cursorPinnedBytes sums the memory pinned by all open cursors'
// suspended state (buffered tuples plus parked pages). Closed cursors
// report 0, so the gauge falls as cursors close by any path — explicit
// close, TTL GC, or DDL invalidation.
func (s *Server) cursorPinnedBytes() int64 {
	var total int64
	for _, sc := range s.cursors.Values() {
		total += sc.cur.PinnedBytes()
	}
	return total
}

// handleCursorOpen serves a /query request carrying "cursor": true: it
// opens a resumable ranked cursor over the statement, pulls the first
// page, and returns it with the cursor_id for /cursor/next.
func (s *Server) handleCursorOpen(w http.ResponseWriter, r *http.Request, req *wire.Request, trace *obs.Trace, stmt *ranksql.Stmt, args []interface{}) {
	endOpen := trace.StartSpan("cursor_open")
	cur, err := stmt.Cursor(args...)
	endOpen()
	if err != nil {
		s.metrics.Fail(w, http.StatusBadRequest, stmt.Normalized(), err.Error())
		return
	}
	pageSize := req.Fetch
	if pageSize <= 0 {
		if pageSize = cur.K(); pageSize <= 0 {
			pageSize = defaultCursorPage
		}
	}
	sc := &serverCursor{cur: cur, norm: stmt.Normalized(), pageSize: pageSize}
	id, err := s.cursors.Add(sc)
	if err != nil {
		_ = cur.Close()
		s.metrics.Fail(w, http.StatusTooManyRequests, sc.norm, "server "+err.Error())
		return
	}
	s.metrics.CursorsOpened.Inc()
	if !s.fetchCursorPage(w, r, req, trace, id, sc, pageSize, 0) || r.Context().Err() != nil {
		// A first page that failed, or whose client left, delivers no
		// cursor id, so no client could ever close the cursor: close it.
		if sc, err := s.cursors.Remove(id); err == nil {
			_ = sc.cur.Close()
		}
	}
}

// handleCursorNext serves POST /cursor/next {cursor_id, fetch?,
// after_rank?}: the next page of a suspended ranked stream. after_rank
// skips forward to resume "after rank r" (cursors cannot rewind).
func (s *Server) handleCursorNext(w http.ResponseWriter, r *http.Request, req *wire.Request) {
	trace := obs.NewTrace(obs.TraceIDFrom(r))
	w.Header().Set(obs.TraceHeader, trace.ID)
	sc, err := s.cursors.Get(req.CursorID)
	if err != nil {
		s.metrics.CursorMisses.Inc()
		s.metrics.Fail(w, http.StatusNotFound, "", err.Error())
		return
	}
	s.metrics.CursorHits.Inc()
	n := req.Fetch
	if n <= 0 {
		n = sc.pageSize
	}
	s.fetchCursorPage(w, r, req, trace, req.CursorID, sc, n, req.AfterRank)
}

// handleCursorClose serves POST /cursor/close {cursor_id}. Like the
// other cursor endpoints it propagates X-Ranksql-Trace, so a client's
// open → next → close sequence correlates across log lines.
func (s *Server) handleCursorClose(w http.ResponseWriter, r *http.Request, req *wire.Request) {
	trace := obs.NewTrace(obs.TraceIDFrom(r))
	w.Header().Set(obs.TraceHeader, trace.ID)
	sc, err := s.cursors.Remove(req.CursorID)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	_ = sc.cur.Close()
	s.metrics.Tracer.Debug("cursor closed", "trace", trace.ID, "cursor", req.CursorID)
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"closed": true, "trace_id": trace.ID})
}

// fetchCursorPage pulls one page from a registered cursor and answers
// with it, reporting whether the pull succeeded. afterRank > 0
// fast-forwards the stream so the page starts at rank afterRank+1; a
// position already past it is an error (ranked streams cannot rewind).
func (s *Server) fetchCursorPage(w http.ResponseWriter, r *http.Request, req *wire.Request, trace *obs.Trace, id string, sc *serverCursor, n, afterRank int) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()

	ctx, cancel := req.Context(r.Context())
	defer cancel()
	start := time.Now()
	endFetch := trace.StartSpan("cursor_fetch")
	var err error
	if skip := afterRank - sc.cur.Pulled(); afterRank > 0 && skip < 0 {
		err = fmt.Errorf("cursor %q is already past rank %d (at %d); ranked streams cannot rewind",
			id, afterRank, sc.cur.Pulled())
	} else if afterRank > 0 && skip > 0 {
		_, err = sc.cur.FetchContext(ctx, skip)
	}
	var rows *ranksql.Rows
	if err == nil {
		rows, err = sc.cur.FetchContext(ctx, n)
	}
	endFetch()
	if err != nil {
		s.pullFailed(ctx, w, r, req, trace, sc.norm, id, err)
		return false
	}
	s.writePage(w, trace, sc.norm, id, sc.cur.Pulled()-rows.Len(), sc.cur.PinnedBytes(), rows, time.Since(start))
	return true
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

// pullFailed maps a failed pull — one-shot or cursor page — onto the
// wire. ctx is the pull's context, derived from r's: when it has ended
// and r's has not, only the deadline_ms budget can have ended it, which
// is a 504 (a cursor survives it and can be pulled again, unless the pull
// was its first page: see handleCursorOpen). A client that went away
// gets no answer; invalidation closes the cursor with 409; anything else
// is the query's own error.
func (s *Server) pullFailed(ctx context.Context, w http.ResponseWriter, r *http.Request, req *wire.Request, trace *obs.Trace, norm, cursorID string, err error) {
	switch {
	case r.Context().Err() != nil:
		return
	case ctx.Err() != nil:
		what := "query"
		if cursorID != "" {
			what = "cursor fetch"
		}
		s.metrics.Timeouts.Inc()
		s.metrics.Tracer.Warn(what+" deadline exceeded",
			"trace", trace.ID, "query", norm, "cursor", cursorID, "deadline_ms", req.DeadlineMS)
		s.metrics.Fail(w, http.StatusGatewayTimeout, norm, fmt.Sprintf("%s exceeded deadline_ms=%d", what, req.DeadlineMS))
	case errors.Is(err, ranksql.ErrCursorInvalidated) || errors.Is(err, ranksql.ErrCursorClosed):
		if sc, gone := s.cursors.Remove(cursorID); gone == nil {
			_ = sc.cur.Close()
		}
		s.metrics.Fail(w, http.StatusConflict, norm, err.Error())
	default:
		s.metrics.Fail(w, http.StatusBadRequest, norm, err.Error())
	}
}
