package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"time"

	"ranksql/internal/obs"
	"ranksql/internal/wire"
)

// Every query answer the router gives is a page of a routerCursor: a
// merged ranked stream over one stream per shard. Its first fetch asks
// every shard for the page size (k for a one-shot), so page one is one
// parallel round: no shard can place more rows in a page than the page
// holds.
// A /query carrying "cursor": true registers the cursor, and each shard
// holds its own suspended cursor (opened with the same protocol the
// router serves), so paginating clients pull later pages without the
// router ever re-fanning-out: a /cursor/next refills only shards whose
// score bound still matters, and each refill fetches the next page-size
// rows past that shard's suspended position. A one-shot /query is page
// one of a cursor that is never registered and whose shard streams are
// one-shots: each runs the fetch text once, k deep, and holds no shard
// state. A re-opened shard cursor whose prefix does not extend the merged
// one means the data moved: the page answers 409.

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
// per shard (cursor streams, or one-shots) under a merger whose first
// fetch is pageSize rows on every shard.
func (r *Router) newCursor(t *template, params []interface{}, pageSize int, cursor bool) *routerCursor {
	rc := &routerCursor{norm: t.norm, pageSize: pageSize}
	merge := make([]Stream, len(r.shards))
	for i, sc := range r.shards {
		s := &cursorStream{r: r, sc: sc, t: t, params: params, cursor: cursor}
		rc.streams = append(rc.streams, s)
		merge[i] = s
	}
	rc.merger = NewMerger(merge, pageSize)
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

// cursorStream adapts one shard to the merge's Stream interface. Its kind
// is fixed when it is created, and each kind has one way to get rows. A
// cursor stream holds a suspended shard cursor and grows its prefix with
// /cursor/next delta pulls, so refill cost is proportional to the new
// rows only; when the pinned replica fails or loses the cursor, the stream
// re-opens it on any replica, and the re-opened prefix must extend the
// held one (replacePrefix): the merge tracks its place in the stream by
// position. A one-shot stream runs the fetch text (rerun), which its
// k-deep first fetch makes a single run.
type cursorStream struct {
	r      *Router
	sc     *shardClient
	t      *template
	params []interface{}
	// cursor marks a cursor stream (see above); otherwise it is a one-shot.
	cursor bool

	// ctx and trace are set by the serving request before each merge
	// pull (a router cursor spans many HTTP requests).
	ctx   context.Context
	trace *obs.Trace

	// rep is the replica holding the shard-side cursor: a suspended
	// cursor is per-process state, so pulls pin to the replica that
	// opened it.
	rep      *replica
	cursorID string // shard cursor id; "" = none open

	rows        [][]interface{}
	scores      []float64
	columns     []string
	exhausted   bool
	fetched     bool
	rounds      int
	allCacheHit bool
	// stats sums the shard executions behind the prefix: spent is what
	// the finished ones cost (one-shot runs, cursors re-opened past), and
	// a live shard cursor reports its own figures cumulatively.
	stats, spent wire.QueryStats
	// rowsFetched counts rows shipped from the shard beyond the prefix
	// already held.
	rowsFetched int
	// depthK/driftRatio are the worst shard-reported enumeration depth
	// and estimate miss across this stream's pulls (0 when the shard
	// never profiled one).
	depthK     int64
	driftRatio float64
}

// errMoved refuses a re-fetched prefix that does not extend the one
// already merged: the shard's data changed between the two reads.
var errMoved = errors.New("the shard's data changed under the ranked merge; re-run the query")

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
	if !s.cursor {
		return s.rerun(n, deadlineMS)
	}
	// The shard cursor is (re)opened at most once per Fetch: on the first
	// one, after a pull that failed in an earlier one, or below.
	opened := false
	for {
		if s.cursorID == "" {
			if err := s.open(n, deadlineMS); err != nil {
				return nil, nil, false, err
			}
			opened = true
		}
		if s.exhausted || (n > 0 && len(s.rows) >= n) {
			return s.rows, s.scores, s.exhausted, nil
		}
		delta := cursorGrowChunk
		if n > 0 {
			delta = n - len(s.rows)
		}
		start := time.Now()
		// after_rank pins the pull to the prefix already held: a no-op
		// skip, unless the shard cursor somehow advanced past it, which it
		// then refuses (400) instead of silently skipping rows.
		resp, err := s.rep.page(s.ctx, "/cursor/next", s.traceID(),
			&wire.Request{CursorID: s.cursorID, Fetch: delta, DeadlineMS: deadlineMS, AfterRank: len(s.rows)})
		s.span(start)
		if err != nil {
			// Whatever the shard made of this pull, the cursor's position is
			// no longer known: drop it. A replica that failed or lost the
			// cursor (404) gets one re-open right away; anything else (409:
			// its snapshot is dead) fails the pull.
			gone := shardStatus(err) == http.StatusNotFound
			if retryable(err) {
				s.rep.noteFailure()
			}
			s.closeRemote()
			if opened || !(retryable(err) || gone) {
				return nil, nil, false, s.shardErr(err)
			}
			continue
		}
		s.rows = append(s.rows, resp.Rows...)
		s.scores = append(s.scores, resp.Scores...)
		s.exhausted = resp.Exhausted
		s.stats = s.spent
		s.stats.Add(resp.Stats)
		s.noteProfile(resp)
		s.rowsFetched += len(resp.Rows)
	}
}

// open (re)opens the stream's shard cursor on the first replica in
// orderedReplicas that answers — after a failure, possibly the one that
// just failed — with a first page deeper than the prefix already held
// (Fetch only asks for rows it lacks), and installs that page as the
// prefix. Failing over on classified-retryable errors, but never hedged:
// the losing hedge would leak a suspended cursor on its replica.
func (s *cursorStream) open(n, deadlineMS int) error {
	fetch := n
	if fetch <= 0 {
		fetch = len(s.rows) + cursorGrowChunk
	}
	type opened struct {
		resp *wire.QueryResponse
		rep  *replica
	}
	start := time.Now()
	out, err := failoverAcross(s.ctx, s.sc, s.sc.orderedReplicas(), func(ctx context.Context, rep *replica) (opened, error) {
		resp, err := s.r.queryReplica(ctx, rep, s.t, s.params, s.traceID(), deadlineMS, fetch, true)
		return opened{resp, rep}, err
	})
	s.span(start)
	if err != nil {
		return s.shardErr(err)
	}
	s.rep, s.cursorID = out.rep, out.resp.CursorID
	if s.fetched {
		s.r.metrics.cursorResumes.Inc()
	}
	return s.replacePrefix(out.resp)
}

// rerun grows a one-shot stream's prefix to n rows: run the fetch text
// with limit n — hedged and failing over across the shard's replicas, see
// shardRead — and replace the prefix with the answer.
func (s *cursorStream) rerun(n, deadlineMS int) ([][]interface{}, []float64, bool, error) {
	start := time.Now()
	resp, err := shardRead(s.ctx, s.sc, func(ctx context.Context, rep *replica) (*wire.QueryResponse, error) {
		return s.r.queryReplica(ctx, rep, s.t, s.params, s.traceID(), deadlineMS, n, false)
	})
	s.span(start)
	if err != nil {
		return nil, nil, false, s.shardErr(err)
	}
	if err := s.replacePrefix(resp); err != nil {
		return nil, nil, false, err
	}
	return s.rows, s.scores, s.exhausted, nil
}

// replacePrefix installs a shard's answer to a /query — a one-shot run or
// a (re)opened cursor's first page — as the stream's prefix. It must start
// with the rows and scores already held, or the merge, which tracks its
// place in the stream by position, would repeat or skip rows: any other
// answer is refused with errMoved. Each /query is a new shard execution,
// so its cost adds to the stream's stats.
func (s *cursorStream) replacePrefix(resp *wire.QueryResponse) error {
	if held := len(s.rows); held > 0 && (len(resp.Rows) < held || len(resp.Scores) < len(s.scores) ||
		!slices.Equal(s.scores, resp.Scores[:len(s.scores)]) || !reflect.DeepEqual(s.rows, resp.Rows[:held])) {
		return s.shardErr(errMoved)
	}
	s.rowsFetched += len(resp.Rows) - len(s.rows)
	s.rows, s.scores, s.exhausted = resp.Rows, resp.Scores, resp.Exhausted
	if s.columns == nil {
		s.columns = resp.Columns
	}
	s.allCacheHit = (s.allCacheHit || !s.fetched) && resp.CacheHit
	s.spent = s.stats
	s.stats.Add(resp.Stats)
	s.noteProfile(resp)
	s.fetched = true
	return nil
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
	if s.cursorID == "" {
		return
	}
	id := s.cursorID
	s.cursorID = ""
	_ = s.rep.cursorClose(s.traceID(), id)
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
	refills := 0 // the fast-forward's refills count toward this page
	if skip := afterRank - rc.pulled; afterRank > 0 && skip > 0 {
		var skipped *Merged
		if skipped, err = rc.merger.Next(skip); err == nil {
			rc.pulled += len(skipped.Rows)
			refills = skipped.Refills
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
	refills += merged.Refills
	resp.Merge.Refills = refills
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
		"shards_pruned", len(merged.Pruned), "refills", refills,
	}
	if id != "" {
		what = "cursor page"
		attrs = append(attrs, "cursor", id, "offset", resp.Offset)
	}
	r.metrics.recordPage(what, elapsed,
		buildInsightRecord(rc.norm, trace.ID, elapsed, resp.Stats, len(merged.Rows), views, merged.Pruned),
		resp.Merge.RowsFetched-rc.rowsFetched, len(merged.Pruned), refills,
		append(attrs, trace.SpanAttrs()...))
	rc.rowsFetched = resp.Merge.RowsFetched
	return resp
}

// pullFailed maps a failed page pull — one-shot or cursor — onto the
// wire. ctx is the pull's context, derived from hr's: when it has ended
// and hr's has not, only the deadline_ms budget can have ended it, which
// is a 504 (a cursor survives it — rows already merged are parked and
// served by the retry — unless the pull was its first page: see
// handleQuery). A client that went away gets no answer; a shard
// cursor's dead snapshot (409, e.g. after DDL) or a re-opened shard
// cursor whose prefix moved under the merge closes the router cursor with
// 409; anything else is a shard failure.
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
	case shardStatus(err) == http.StatusConflict || errors.Is(err, errMoved):
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
