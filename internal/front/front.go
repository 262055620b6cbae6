// Package front is the client-handle half of the protocol ranksqld and
// the sharding router both serve, implemented once: the session table
// with each session's prepared statements, the ranked-cursor table, the
// /session, /session/close, /prepare, /stmt/close, /cursor/next and
// /cursor/close endpoints, cursor registration on /query, statement
// resolution (Resolve), the page-size default, the after_rank rule and
// the answer a failed pull gets (Failed).
//
// A daemon supplies only what differs (Spec): how a statement is
// prepared, how a stream pulls and writes a page, how a stream is
// released and which pull errors mean it is dead. Both tables are
// idle.Tables under the daemon's session TTL, capped at MaxOpen entries.
package front

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"ranksql/internal/idle"
	"ranksql/internal/obs"
	"ranksql/internal/wire"
)

const (
	// MaxOpen bounds the open sessions and, separately, the open cursors:
	// a cursor pins a suspended stream (on the router, one on every shard
	// too) and a session its statements, so clients that never close them
	// cannot grow memory without limit.
	MaxOpen = 4096
	// MaxStmtsPerSession bounds the prepared statements one session may
	// hold, the default session "" included, which nobody can close.
	MaxStmtsPerSession = 1024
	// DefaultPage is the cursor page size when neither the request's fetch
	// nor the statement's LIMIT sets one.
	DefaultPage = 10
)

// Stmt is a prepared statement as /prepare reports it.
type Stmt interface {
	Normalized() string
	NumParams() int
	IsQuery() bool
}

// Metrics is the accounting the front counts into: obs.Metrics, on
// either daemon.
type Metrics interface {
	Fail(w http.ResponseWriter, code int, norm, msg string)
	Handles() *obs.HandleSeries
}

// Table is what a daemon reads of a handle table: its size and expiries
// for /stats and the gauges, and a forced sweep.
type Table interface {
	Len() int
	Expired() uint64
	Sweep(now time.Time)
}

// Spec is what a daemon supplies: S is its prepared statement, C the
// ranked stream a cursor pages.
type Spec[S Stmt, C any] struct {
	// Prepare prepares a statement's text.
	Prepare func(src string) (S, error)
	// Page pulls the next n rows of c, after skipping skip rows, and
	// writes them to w as a page of cursor id over the template norm. A
	// failed pull writes nothing and returns its error.
	Page func(ctx context.Context, w http.ResponseWriter, trace *obs.Trace, id, norm string, c C, skip, n int) error
	// Pulled reports how many rows c has delivered.
	Pulled func(c C) int
	// Close releases c. trace is the request closing it, nil when the
	// idle TTL collected it.
	Close func(c C, trace *obs.Trace)
	// Dead reports whether a pull error leaves the stream unusable: the
	// cursor is closed and the page answers 409. Any other pull error
	// answers PullStatus.
	Dead       func(err error) bool
	PullStatus int
	// CursorPrefix starts minted cursor ids; TTL is how long a session or
	// cursor may sit unused before it is collected (<= 0: never).
	CursorPrefix string
	TTL          time.Duration
	Metrics      Metrics
}

// Front serves the client-handle endpoints of one daemon.
type Front[S Stmt, C any] struct {
	spec     Spec[S, C]
	m        *obs.HandleSeries
	sessions *idle.Table[*session[S]]
	cursors  *idle.Table[*cursor[C]]
}

// session holds the statements a client prepared. Session "" (the
// default session) is pinned and serves sessionless clients.
type session[S any] struct {
	mu    sync.Mutex
	stmts map[string]S
	next  uint64
}

// cursor is one registered ranked stream plus the statement's template,
// for metrics attribution, and its default page size.
type cursor[C any] struct {
	mu       sync.Mutex // serializes pulls and the release
	stream   C
	norm     string
	pageSize int
}

// New builds the front's tables.
func New[S Stmt, C any](spec Spec[S, C]) *Front[S, C] {
	f := &Front[S, C]{spec: spec, m: spec.Metrics.Handles()}
	f.sessions = idle.New(idle.Spec[*session[S]]{
		Kind: "session", Prefix: "sess", Hint: "open a new session", TTL: spec.TTL, Limit: MaxOpen,
	})
	f.sessions.Pin("", &session[S]{stmts: map[string]S{}})
	f.cursors = idle.New(idle.Spec[*cursor[C]]{
		Kind: "cursor", Prefix: spec.CursorPrefix, Hint: "re-open the query", TTL: spec.TTL, Limit: MaxOpen,
		// Releasing a stream may be network I/O (the router's shard
		// cursors): the request whose table access ran the sweep does not
		// wait for it.
		OnEvict: func(c *cursor[C]) { go f.release(c, nil) },
	})
	return f
}

// Sessions and Cursors expose the handle tables.
func (f *Front[S, C]) Sessions() Table { return f.sessions }
func (f *Front[S, C]) Cursors() Table  { return f.cursors }

// Streams snapshots the open cursors' streams.
func (f *Front[S, C]) Streams() []C {
	cs := f.cursors.Values()
	out := make([]C, len(cs))
	for i, c := range cs {
		out[i] = c.stream
	}
	return out
}

// Mount serves the handle endpoints on mux; /query, /exec and the rest
// stay the daemon's.
func (f *Front[S, C]) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/session", wire.Post(f.handleSessionOpen))
	mux.HandleFunc("/session/close", wire.Post(f.handleSessionClose))
	mux.HandleFunc("/prepare", wire.Post(f.handlePrepare))
	mux.HandleFunc("/stmt/close", wire.Post(f.handleStmtClose))
	mux.HandleFunc("/cursor/next", wire.Post(f.handleCursorNext))
	mux.HandleFunc("/cursor/close", wire.Post(f.handleCursorClose))
}

func (f *Front[S, C]) handleSessionOpen(w http.ResponseWriter, _ *http.Request, _ *wire.Request) {
	id, err := f.sessions.Add(&session[S]{stmts: map[string]S{}})
	if err != nil {
		wire.WriteError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"session_id": id})
}

func (f *Front[S, C]) handleSessionClose(w http.ResponseWriter, _ *http.Request, req *wire.Request) {
	if _, err := f.sessions.Remove(req.SessionID); err != nil {
		wire.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

func (f *Front[S, C]) handlePrepare(w http.ResponseWriter, _ *http.Request, req *wire.Request) {
	if strings.TrimSpace(req.SQL) == "" {
		wire.WriteError(w, http.StatusBadRequest, "sql is required")
		return
	}
	sess, err := f.sessions.Get(req.SessionID)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	st, err := f.spec.Prepare(req.SQL)
	if err != nil {
		f.spec.Metrics.Fail(w, http.StatusBadRequest, "", err.Error())
		return
	}
	sess.mu.Lock()
	full := len(sess.stmts) >= MaxStmtsPerSession
	var id string
	if !full {
		sess.next++
		id = fmt.Sprintf("stmt-%d", sess.next)
		sess.stmts[id] = st
	}
	sess.mu.Unlock()
	if full {
		wire.WriteError(w, http.StatusTooManyRequests, fmt.Sprintf(
			"session %q already holds %d prepared statements; close some via /stmt/close", req.SessionID, MaxStmtsPerSession))
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"session_id": req.SessionID,
		"stmt_id":    id,
		"num_params": st.NumParams(),
		"is_query":   st.IsQuery(),
		"normalized": st.Normalized(),
	})
}

func (f *Front[S, C]) handleStmtClose(w http.ResponseWriter, _ *http.Request, req *wire.Request) {
	sess, err := f.sessions.Get(req.SessionID)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	sess.mu.Lock()
	_, ok := sess.stmts[req.StmtID]
	delete(sess.stmts, req.StmtID)
	sess.mu.Unlock()
	if !ok {
		wire.WriteError(w, http.StatusNotFound, fmt.Sprintf("no statement %q", req.StmtID))
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

// Resolve finds the statement a request names: stmt_id in session_id,
// or sql, prepared afresh. A failure comes with the status to answer.
func (f *Front[S, C]) Resolve(req *wire.Request) (S, int, error) {
	var zero S
	switch {
	case req.StmtID != "":
		sess, err := f.sessions.Get(req.SessionID)
		if err != nil {
			return zero, http.StatusNotFound, err
		}
		sess.mu.Lock()
		st, ok := sess.stmts[req.StmtID]
		sess.mu.Unlock()
		if !ok {
			return zero, http.StatusNotFound, fmt.Errorf("no statement %q in session %q", req.StmtID, req.SessionID)
		}
		return st, 0, nil
	case strings.TrimSpace(req.SQL) != "":
		st, err := f.spec.Prepare(req.SQL)
		if err != nil {
			return zero, http.StatusBadRequest, err
		}
		return st, 0, nil
	default:
		return zero, http.StatusBadRequest, errors.New("either sql or stmt_id is required")
	}
}

// PageSize is a cursor's page size: the request's fetch, else the
// statement's LIMIT k, else DefaultPage.
func PageSize(req *wire.Request, k int) int {
	switch {
	case req.Fetch > 0:
		return req.Fetch
	case k > 0:
		return k
	}
	return DefaultPage
}

// Open serves a /query carrying "cursor": true once the daemon has opened
// its stream over the template norm: it registers the stream as a cursor
// paged by pageSize and answers with the first page and the cursor_id.
func (f *Front[S, C]) Open(w http.ResponseWriter, r *http.Request, req *wire.Request, trace *obs.Trace, norm string, stream C, pageSize int) {
	c := &cursor[C]{stream: stream, norm: norm, pageSize: pageSize}
	id, err := f.cursors.Add(c)
	if err != nil {
		f.spec.Close(stream, trace)
		f.spec.Metrics.Fail(w, http.StatusTooManyRequests, norm, err.Error())
		return
	}
	f.m.CursorsOpened.Inc()
	if !f.pull(w, r, req, trace, id, c, pageSize, 0) || r.Context().Err() != nil {
		// A first page that failed, or whose client left, delivers no
		// cursor id, so no client could ever close the cursor: close it.
		if c, err := f.cursors.Remove(id); err == nil {
			f.release(c, trace)
		}
	}
}

// handleCursorNext serves POST /cursor/next {cursor_id, fetch?,
// after_rank?}: the next page of a suspended ranked stream.
func (f *Front[S, C]) handleCursorNext(w http.ResponseWriter, r *http.Request, req *wire.Request) {
	trace := obs.NewTrace(obs.TraceIDFrom(r))
	w.Header().Set(obs.TraceHeader, trace.ID)
	c, err := f.cursors.Get(req.CursorID)
	if err != nil {
		f.m.CursorMisses.Inc()
		f.spec.Metrics.Fail(w, http.StatusNotFound, "", err.Error())
		return
	}
	f.m.CursorHits.Inc()
	n := req.Fetch
	if n <= 0 {
		n = c.pageSize
	}
	f.pull(w, r, req, trace, req.CursorID, c, n, req.AfterRank)
}

// handleCursorClose serves POST /cursor/close {cursor_id}. It propagates
// X-Ranksql-Trace like the pulls, so a client's open → next → close
// sequence (and, on the router, each shard's close) correlates.
func (f *Front[S, C]) handleCursorClose(w http.ResponseWriter, r *http.Request, req *wire.Request) {
	trace := obs.NewTrace(obs.TraceIDFrom(r))
	w.Header().Set(obs.TraceHeader, trace.ID)
	c, err := f.cursors.Remove(req.CursorID)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	f.release(c, trace)
	f.m.Tracer.Debug("cursor closed", "trace", trace.ID, "cursor", req.CursorID)
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"closed": true, "trace_id": trace.ID})
}

// pull answers with the next page of n rows of cursor id and reports
// whether it did. afterRank > 0 fast-forwards the stream so the page
// starts at rank afterRank+1; a position already past it is a 400
// (ranked streams cannot rewind).
func (f *Front[S, C]) pull(w http.ResponseWriter, r *http.Request, req *wire.Request, trace *obs.Trace, id string, c *cursor[C], n, afterRank int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	at := f.spec.Pulled(c.stream)
	if afterRank > 0 && afterRank < at {
		f.spec.Metrics.Fail(w, http.StatusBadRequest, c.norm, fmt.Sprintf(
			"cursor %q is already past rank %d (at %d); ranked streams cannot rewind", id, afterRank, at))
		return false
	}
	ctx, cancel := req.Context(r.Context())
	defer cancel()
	err := f.spec.Page(ctx, w, trace, id, c.norm, c.stream, max(afterRank-at, 0), n)
	if err != nil && f.Failed(ctx, w, r, req, trace, c.norm, id, err) {
		_, _ = f.cursors.Remove(id)
		f.spec.Close(c.stream, trace)
	}
	return err == nil
}

// release closes a cursor's stream once no pull is in flight on it.
func (f *Front[S, C]) release(c *cursor[C], trace *obs.Trace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f.spec.Close(c.stream, trace)
}

// Failed answers a failed pull of a cursor page (id) or a one-shot (id
// "") and reports whether the stream is dead. ctx is the pull's context,
// derived from r's: when it has ended and r's has not, only the
// deadline_ms budget can have ended it, which is a 504 (a cursor
// survives it and can be pulled again, unless the pull was its first
// page: see Open). A client that went away gets no answer; a dead stream
// answers 409 and its cursor is closed; anything else answers
// Spec.PullStatus.
func (f *Front[S, C]) Failed(ctx context.Context, w http.ResponseWriter, r *http.Request, req *wire.Request, trace *obs.Trace, norm, id string, err error) bool {
	switch {
	case r.Context().Err() != nil:
		return false
	case ctx.Err() != nil:
		what := "query"
		if id != "" {
			what = "cursor fetch"
		}
		f.m.Timeouts.Inc()
		f.m.Tracer.Warn(what+" deadline exceeded",
			"trace", trace.ID, "query", norm, "cursor", id, "deadline_ms", req.DeadlineMS)
		f.spec.Metrics.Fail(w, http.StatusGatewayTimeout, norm, fmt.Sprintf("%s exceeded deadline_ms=%d", what, req.DeadlineMS))
		return false
	case f.spec.Dead(err):
		f.spec.Metrics.Fail(w, http.StatusConflict, norm, err.Error())
		return true
	default:
		f.spec.Metrics.Fail(w, f.spec.PullStatus, norm, err.Error())
		return false
	}
}
