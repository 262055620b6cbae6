package router

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"ranksql/internal/obs"
	"ranksql/internal/wire"
)

// Every query answer the router gives is a page of a routerCursor: a
// merged ranked stream over one stream per shard. A /query carrying
// "cursor": true registers the cursor, and each shard holds its own
// suspended cursor (opened with the same protocol the router serves), so
// paginating clients pull pages without the router ever re-fanning-out:
// a /cursor/next refills only shards whose score bound still matters,
// and each refill fetches just the delta rows past that shard's
// suspended position. A one-shot /query is page one of a cursor that is
// never registered and whose shard streams start in plain mode: they
// re-execute the template with a deeper limit instead of holding shard
// state for a second page that will not come.

const (
	// maxOpenRouterCursors bounds concurrently open cursors: each one
	// pins per-shard stream prefixes in router memory plus a suspended
	// cursor on every shard.
	maxOpenRouterCursors = 4096
	// defaultCursorPage is the fetch size when neither the request nor
	// the statement's LIMIT suggests one.
	defaultCursorPage = 10
	// cursorGrowChunk pages an unbounded fetch (n <= 0, "drain the
	// shard") through the shard cursor in chunks.
	cursorGrowChunk = 256
)

// routerCursor is one merged ranked stream: the persistent Merger plus
// the per-shard streams it draws from. Registered cursors live in an
// idle.Table under the cursor TTL.
type routerCursor struct {
	mu          sync.Mutex // serializes pulls on this cursor
	merger      *Merger
	streams     []*cursorStream
	norm        string
	pageSize    int
	pulled      int // rows delivered so far (rank offset for the next page)
	rowsFetched int // shard rows already attributed to per-page metrics
}

// newCursor builds the merged stream for a select template: one stream
// per shard (plain: born re-executing, for one-shots) under a merger
// whose first fetch splits pageSize across the shards.
func (r *Router) newCursor(t *template, params []interface{}, pageSize int, plain bool) *routerCursor {
	rc := &routerCursor{norm: t.norm, pageSize: pageSize}
	merge := make([]Stream, len(r.shards))
	for i, sc := range r.shards {
		s := &cursorStream{r: r, sc: sc, t: t, params: params, plain: plain}
		rc.streams = append(rc.streams, s)
		merge[i] = s
	}
	rc.merger = NewMerger(merge, perShardK(pageSize, len(r.shards)))
	return rc
}

// closeShardCursors releases the shard-side cursors (best-effort; shard
// TTL GC is the backstop), under trace when one is given so each shard's
// close log line joins the request that caused it. It takes rc.mu
// because the idle sweep may race a pull in flight on this cursor.
func (rc *routerCursor) closeShardCursors(trace *obs.Trace) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, s := range rc.streams {
		if trace != nil {
			s.trace = trace
		}
		s.closeRemote()
	}
}

// cursorStream adapts one shard to the merge's Stream interface. In
// cursor mode it opens a suspended cursor on the shard and grows its
// prefix with /cursor/next delta pulls, so refill cost is proportional
// to the new rows only. In plain mode it re-issues the template with a
// deeper limit and replaces the prefix wholesale, making the shard
// re-enumerate it: what a one-shot wants from the start, and what a
// cursor stream degrades to when the shard loses the cursor (restart,
// idle GC) — the shard's append-only storage keeps the re-fetched prefix
// a superset of the old one, so the merge's monotonicity checks still
// hold (at the cost of the original snapshot bound).
type cursorStream struct {
	r      *Router
	sc     *shardClient
	t      *template
	params []interface{}

	// ctx and trace are set by the serving request before each merge
	// pull (a router cursor spans many HTTP requests).
	ctx   context.Context
	trace *obs.Trace

	// rep is the replica holding the shard-side cursor: a suspended
	// cursor is per-process state, so pulls pin to the replica that
	// opened it. When that replica fails, resume() re-opens the stream
	// on another replica and after_rank fast-forward realigns it.
	rep      *replica
	cursorID string // shard cursor id; "" = not yet opened
	// plain: re-execute deeper instead of pulling a shard cursor (the
	// merge then grows this stream by doubling, not additively).
	plain bool

	rows        [][]interface{}
	scores      []float64
	columns     []string
	exhausted   bool
	fetched     bool
	rounds      int
	allCacheHit bool
	stats       wire.QueryStats
	// rowsFetched counts rows shipped from the shard beyond the prefix
	// already held: delta pulls in cursor mode, prefix growth in plain
	// mode (plus the probe row of each replica resume).
	rowsFetched int
	// depthK/driftRatio are the worst shard-reported enumeration depth
	// and estimate miss across this stream's pulls (0 when the shard
	// never profiled one).
	depthK     int64
	driftRatio float64
}

// noteProfile folds one shard response's profiling figures (present
// only on shard-profiled executions) into the stream's worst-case view.
func (s *cursorStream) noteProfile(resp *wire.QueryResponse) {
	if resp.DepthKReached > s.depthK {
		s.depthK = resp.DepthKReached
	}
	if resp.MaxDriftRatio > s.driftRatio {
		s.driftRatio = resp.MaxDriftRatio
	}
}

// cursorGone reports a shard error meaning the shard no longer holds
// the cursor (restart, idle GC) — re-execution can still answer.
func cursorGone(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "no cursor") || strings.Contains(msg, "expired")
}

// cursorDead reports a shard error meaning the cursor's snapshot is
// unusable (schema changed under it); re-execution could silently
// return different data, so the whole router cursor must be closed.
func cursorDead(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "invalidated") || strings.Contains(msg, "cursor is closed")
}

// remainingDeadlineMS converts the pull context's deadline into the
// shard-side deadline_ms budget (0 = none), so the shard cuts its own
// execution off rather than relying on the dropped connection alone; a
// second return of false means the budget is already spent.
func (s *cursorStream) remainingDeadlineMS() (int, bool) {
	dl, ok := s.ctx.Deadline()
	if !ok {
		return 0, true
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return 0, false
	}
	ms := int(rem / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	return ms, true
}

func (s *cursorStream) span(start time.Time) {
	s.rounds++
	if s.trace != nil {
		s.trace.AddSpan(fmt.Sprintf("shard%d_fetch%d", s.sc.id, s.rounds), start, time.Now())
	}
}

func (s *cursorStream) shardErr(err error) error {
	return fmt.Errorf("shard %d (%s): %w", s.sc.id, s.sc.addr(), err)
}

func (s *cursorStream) Fetch(n int) ([][]interface{}, []float64, bool, error) {
	if s.fetched && (s.exhausted || (n > 0 && len(s.rows) >= n)) {
		return s.rows, s.scores, s.exhausted, nil
	}
	deadlineMS, alive := s.remainingDeadlineMS()
	if !alive {
		// The deadline has passed, but the context's timer may not have
		// fired yet: wait for it, so the pull fails with the context's
		// error rather than returning an empty prefix and no error.
		<-s.ctx.Done()
		return nil, nil, false, s.ctx.Err()
	}
	if s.plain {
		return s.refetchPlain(n, deadlineMS)
	}
	if s.cursorID == "" {
		fetch := n
		if fetch <= 0 {
			fetch = cursorGrowChunk
		}
		start := time.Now()
		resp, rep, err := s.r.openShardCursor(s.ctx, s.sc, s.t, s.params, s.traceID(), deadlineMS, fetch)
		s.span(start)
		if err != nil {
			return nil, nil, false, s.shardErr(err)
		}
		s.rep, s.cursorID = rep, resp.CursorID
		// A shard that answered without a cursor id (downlevel server)
		// gave a plain prefix: re-execute from here on.
		s.plain = s.cursorID == ""
		s.rows, s.scores, s.exhausted = resp.Rows, resp.Scores, resp.Exhausted
		s.columns = resp.Columns
		s.allCacheHit = resp.CacheHit
		s.stats = resp.Stats
		s.noteProfile(resp)
		s.rowsFetched += len(resp.Rows)
		s.fetched = true
	}
	for !s.exhausted && !s.plain && (n <= 0 || len(s.rows) < n) {
		delta := cursorGrowChunk
		if n > 0 {
			delta = n - len(s.rows)
		}
		start := time.Now()
		// after_rank pins the pull to the prefix the router has already
		// merged: normally a no-op skip, but if the shard advanced past
		// us (a pull response lost in flight) it turns silent row loss
		// into a clean "cannot rewind" error we can recover from.
		resp, err := s.rep.page(s.ctx, "/cursor/next", s.traceID(),
			&wire.Request{CursorID: s.cursorID, Fetch: delta, DeadlineMS: deadlineMS, AfterRank: len(s.rows)})
		s.span(start)
		if err != nil {
			if !cursorDead(err) && (retryable(err) || cursorGone(err) || strings.Contains(err.Error(), "rewind")) {
				if s.resume(deadlineMS) {
					continue
				}
				s.rep, s.cursorID, s.plain = nil, "", true
				return s.refetchPlain(n, deadlineMS)
			}
			return nil, nil, false, s.shardErr(err)
		}
		s.rows = append(s.rows, resp.Rows...)
		s.scores = append(s.scores, resp.Scores...)
		s.exhausted = resp.Exhausted
		// Shard cursor stats are cumulative across its pulls.
		s.stats = resp.Stats
		s.noteProfile(resp)
		s.rowsFetched += len(resp.Rows)
	}
	return s.rows, s.scores, s.exhausted, nil
}

// resume re-opens the shard stream on another replica after the pinned
// one failed or lost the cursor. The rank-aware contract makes this
// sound: replicas hold identical copies and ranked enumeration is
// deterministic, so a fresh cursor on a surviving replica serves the
// same prefix, and the next pull's after_rank fast-forwards it to the
// rows the router already merged. Returns false when no replica could
// take over (the caller then degrades to plain mode).
func (s *cursorStream) resume(deadlineMS int) bool {
	for _, rep := range s.sc.orderedReplicas() {
		if rep == s.rep {
			continue
		}
		start := time.Now()
		resp, err := s.r.queryReplica(s.ctx, rep, s.t, s.params, s.traceID(), deadlineMS, 1, true)
		s.span(start)
		if err != nil || resp.CursorID == "" {
			if err != nil && retryable(err) {
				rep.noteFailure()
			}
			continue
		}
		rep.noteSuccess()
		s.rep, s.cursorID = rep, resp.CursorID
		if len(s.rows) == 0 {
			// Nothing merged yet: the probe page IS the prefix.
			s.rows, s.scores, s.exhausted = resp.Rows, resp.Scores, resp.Exhausted
			s.columns = resp.Columns
			s.stats = resp.Stats
			s.noteProfile(resp)
			s.fetched = true
		}
		// A non-empty prefix discards the probe row: the next pull's
		// after_rank skip realigns the new cursor with len(s.rows).
		s.rowsFetched += len(resp.Rows)
		s.r.metrics.cursorResumes.Inc()
		return true
	}
	return false
}

// refetchPlain grows a plain-mode stream's prefix to n rows: re-issue
// the template with a deep-enough limit — hedged and failing over across
// the shard's replicas, see shardRead — and replace the prefix wholesale.
func (s *cursorStream) refetchPlain(n, deadlineMS int) ([][]interface{}, []float64, bool, error) {
	if n > 0 && n < len(s.rows) {
		// The prefix must never shrink; re-fetch at least what we had.
		n = len(s.rows)
	}
	start := time.Now()
	resp, err := shardRead(s.ctx, s.sc, func(ctx context.Context, rep *replica) (*wire.QueryResponse, error) {
		return s.r.queryReplica(ctx, rep, s.t, s.params, s.traceID(), deadlineMS, n, false)
	})
	s.span(start)
	if err != nil {
		return nil, nil, false, s.shardErr(err)
	}
	s.rowsFetched += len(resp.Rows) - len(s.rows)
	s.rows, s.scores, s.exhausted = resp.Rows, resp.Scores, resp.Exhausted
	if s.columns == nil {
		s.columns = resp.Columns
	}
	s.allCacheHit = (s.allCacheHit || !s.fetched) && resp.CacheHit
	// Re-execution repeats the enumeration; its whole cost is added so
	// the savings accounting stays honest.
	s.stats.Add(resp.Stats)
	s.noteProfile(resp)
	s.fetched = true
	return s.rows, s.scores, s.exhausted, nil
}

func (s *cursorStream) traceID() string {
	if s.trace == nil {
		return ""
	}
	return s.trace.ID
}

// closeRemote releases the shard-side cursor (best-effort), reusing the
// cursor's last trace ID so the shard's close log line joins the pulls.
func (s *cursorStream) closeRemote() {
	if s.cursorID == "" || s.rep == nil {
		return
	}
	id := s.cursorID
	s.cursorID = ""
	_ = s.rep.cursorClose(s.traceID(), id)
}

// openShardCursor opens a ranked cursor on one of the shard's replicas
// (failing over on classified-retryable errors; never hedged — the
// losing hedge would leak a suspended cursor on its replica) and
// returns the replica the cursor is pinned to. fetch sizes the first
// page and, through the limit parameter, tunes the shard's plan depth.
func (r *Router) openShardCursor(ctx context.Context, sc *shardClient, t *template, params []interface{}, trace string, deadlineMS, fetch int) (*wire.QueryResponse, *replica, error) {
	type opened struct {
		resp *wire.QueryResponse
		rep  *replica
	}
	out, err := failoverAcross(ctx, sc, sc.orderedReplicas(), func(ctx context.Context, rep *replica) (opened, error) {
		resp, err := r.queryReplica(ctx, rep, t, params, trace, deadlineMS, fetch, true)
		return opened{resp, rep}, err
	})
	return out.resp, out.rep, err
}

// handleCursorNext serves POST /cursor/next {cursor_id, fetch?,
// after_rank?}: the next page of the merged ranked stream, refilling
// only shards whose bounds still matter. after_rank skips forward
// (cursors cannot rewind).
func (r *Router) handleCursorNext(w http.ResponseWriter, hr *http.Request, req *wire.Request) {
	trace := obs.NewTrace(obs.TraceIDFrom(hr))
	w.Header().Set(obs.TraceHeader, trace.ID)
	rc, err := r.cursors.Get(req.CursorID)
	if err != nil {
		r.metrics.CursorMisses.Inc()
		r.metrics.Fail(w, http.StatusNotFound, "", err.Error())
		return
	}
	r.metrics.CursorHits.Inc()
	n := req.Fetch
	if n <= 0 {
		n = rc.pageSize
	}
	if resp := r.pullPage(w, hr, req, trace, req.CursorID, rc, n, req.AfterRank); resp != nil {
		wire.WriteJSON(w, http.StatusOK, resp)
	}
}

// handleCursorClose serves POST /cursor/close {cursor_id}, propagating
// X-Ranksql-Trace so the router's close and each shard's close share
// one trace ID.
func (r *Router) handleCursorClose(w http.ResponseWriter, hr *http.Request, req *wire.Request) {
	trace := obs.NewTrace(obs.TraceIDFrom(hr))
	w.Header().Set(obs.TraceHeader, trace.ID)
	rc, err := r.cursors.Remove(req.CursorID)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	rc.closeShardCursors(trace)
	r.metrics.Tracer.Debug("cursor closed", "trace", trace.ID, "cursor", req.CursorID)
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"closed": true, "trace_id": trace.ID})
}

// newPage starts a response around one page of merged rows: non-null
// rows, scores and pruned list, and contiguous ranks from offset+1.
func (r *Router) newPage(rows [][]interface{}, scores []float64, offset int, pruned []int) *wire.QueryResponse {
	resp := &wire.QueryResponse{
		Rows:     rows,
		Scores:   scores,
		Ranks:    make([]int, len(rows)),
		CacheHit: true,
		Depth:    len(rows),
		Offset:   offset,
		Merge:    &wire.MergeInfo{Shards: len(r.shards), ShardsPruned: pruned},
	}
	if rows == nil {
		resp.Rows = [][]interface{}{}
	}
	if scores == nil {
		resp.Scores = []float64{}
	}
	if pruned == nil {
		resp.Merge.ShardsPruned = []int{}
	}
	for i := range resp.Ranks {
		resp.Ranks[i] = offset + i + 1
	}
	return resp
}

// pullPage pulls the next page of n rows (all remaining rows when n <=
// 0) from a merged stream — registered under id, or a one-shot's (id "")
// — records it, and returns the response for the caller to send. A
// failed pull is answered here and returns nil. afterRank > 0
// fast-forwards the stream so the page starts at rank afterRank+1; a
// position already past it is an error (ranked streams cannot rewind).
func (r *Router) pullPage(w http.ResponseWriter, hr *http.Request, req *wire.Request, trace *obs.Trace, id string, rc *routerCursor, n, afterRank int) *wire.QueryResponse {
	rc.mu.Lock()
	defer rc.mu.Unlock()

	if afterRank > 0 && afterRank < rc.pulled {
		r.metrics.Fail(w, http.StatusBadRequest, rc.norm, fmt.Sprintf(
			"cursor %q is already past rank %d (at %d); ranked streams cannot rewind", id, afterRank, rc.pulled))
		return nil
	}
	ctx, cancel := req.Context(hr.Context())
	defer cancel()
	for _, s := range rc.streams {
		s.ctx, s.trace = ctx, trace
	}
	start := time.Now()
	endMerge := trace.StartSpan("merge")
	var err error
	if skip := afterRank - rc.pulled; afterRank > 0 && skip > 0 {
		var skipped *Merged
		if skipped, err = rc.merger.Next(skip); err == nil {
			rc.pulled += len(skipped.Rows)
		}
	}
	var merged *Merged
	if err == nil {
		merged, err = rc.merger.Next(n)
	}
	endMerge()
	if err != nil {
		r.pullFailed(ctx, w, hr, req, trace, id, rc, err)
		return nil
	}
	elapsed := time.Since(start)

	resp := r.newPage(merged.Rows, merged.Scores, rc.pulled, merged.Pruned)
	rc.pulled += len(merged.Rows)
	resp.K = n
	resp.Exhausted = merged.Exhausted
	resp.CursorID = id
	resp.Merge.Refills = merged.Refills
	resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	resp.TraceID = trace.ID
	views := make([]shardView, len(rc.streams))
	for i, s := range rc.streams {
		if resp.Columns == nil {
			resp.Columns = s.columns
		}
		resp.CacheHit = resp.CacheHit && s.allCacheHit
		// Stats and rows_fetched are cumulative across the stream's pages,
		// mirroring the engine cursor: the last page's counters describe
		// the whole enumeration so far.
		resp.Stats.Add(s.stats)
		resp.Merge.RowsFetched += s.rowsFetched
		views[i] = shardView{rowsFetched: s.rowsFetched, depthK: s.depthK, driftRatio: s.driftRatio}
	}
	what := "query"
	attrs := []any{
		"trace", trace.ID, "query", rc.norm, "elapsed_ms", resp.ElapsedMS,
		"rows", len(merged.Rows), "rows_fetched", resp.Merge.RowsFetched,
		"shards_pruned", len(merged.Pruned), "refills", merged.Refills,
	}
	if id != "" {
		what = "cursor page"
		attrs = append(attrs, "cursor", id, "offset", resp.Offset)
	}
	r.metrics.recordPage(what, elapsed,
		buildInsightRecord(rc.norm, trace.ID, elapsed, resp.Stats, len(merged.Rows), views, merged.Pruned),
		resp.Merge.RowsFetched-rc.rowsFetched, len(merged.Pruned), merged.Refills,
		append(attrs, trace.SpanAttrs()...))
	rc.rowsFetched = resp.Merge.RowsFetched
	return resp
}

// pullFailed maps a failed page pull — one-shot or cursor — onto the
// wire. ctx is the pull's context, derived from hr's: when it has ended
// and hr's has not, only the deadline_ms budget can have ended it, which
// is a 504 (a cursor survives it — rows already merged are parked and
// served by the retry). A client that went away gets no answer;
// shard-side invalidation closes the router cursor with 409; anything
// else is a shard failure.
func (r *Router) pullFailed(ctx context.Context, w http.ResponseWriter, hr *http.Request, req *wire.Request, trace *obs.Trace, id string, rc *routerCursor, err error) {
	switch {
	case hr.Context().Err() != nil:
		return
	case ctx.Err() != nil:
		what := "query"
		if id != "" {
			what = "cursor fetch"
		}
		r.metrics.Timeouts.Inc()
		r.metrics.Tracer.Warn(what+" deadline exceeded",
			"trace", trace.ID, "query", rc.norm, "cursor", id, "deadline_ms", req.DeadlineMS)
		r.metrics.Fail(w, http.StatusGatewayTimeout, rc.norm, fmt.Sprintf("%s exceeded deadline_ms=%d", what, req.DeadlineMS))
	case cursorDead(err):
		// The caller holds rc.mu, so tear down inline rather than via
		// closeShardCursors (which re-locks it).
		_, _ = r.cursors.Remove(id)
		for _, s := range rc.streams {
			s.closeRemote()
		}
		r.metrics.Fail(w, http.StatusConflict, rc.norm, err.Error())
	default:
		r.metrics.Fail(w, http.StatusBadGateway, rc.norm, err.Error())
	}
}
