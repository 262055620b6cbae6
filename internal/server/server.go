// Package server implements ranksqld, a concurrent HTTP/JSON query
// service over an embedded RankSQL database.
//
// The service exposes session management, prepared statements with `?`
// parameter binding, ad-hoc queries, and an operational /stats endpoint.
// Ranked top-k workloads are repeated-template, varying-parameter
// workloads, so the daemon leans on the engine's plan cache: the first
// execution of a template pays for parsing and rank-aware optimization,
// every later execution (any session, any parameters) goes straight to
// incremental top-k execution.
//
// Endpoints (all request/response bodies are JSON):
//
//	POST /session        {}                                -> {session_id}
//	POST /session/close  {session_id}                      -> {closed}
//	POST /prepare        {sql, session_id?}                -> {stmt_id, num_params, is_query, normalized}
//	POST /stmt/close     {stmt_id, session_id?}            -> {closed}
//	POST /query          {sql | stmt_id [+session_id], params?} -> {columns, rows, scores, ranks, k, depth, exhausted, cache_hit, stats, elapsed_ms}
//	POST /query          {..., cursor: true, fetch?}            -> first page + {cursor_id, offset}
//	POST /cursor/next    {cursor_id, fetch?, after_rank?}       -> next page
//	POST /cursor/close   {cursor_id}                            -> {closed}
//	POST /exec           {sql | stmt_id [+session_id], params?} -> {rows_affected, message}
//	POST /load?table=t&header=0|1  (CSV body)              -> {rows_loaded}
//	GET  /stats                                            -> Snapshot
//	GET  /metrics                                          -> Prometheus text format
//	GET  /insight/workload                                 -> rolling workload summary (insight.Workload)
//	GET  /insight/templates                                -> per-template profiles: depth-k distribution, p95 footprint, estimate drift
//	GET  /healthz                                          -> {status: "ok"}
//
// The request envelope and the page /query and /cursor/next answer with
// are defined in internal/wire, shared with the sharding router.
// Parameters bind positionally to `?` placeholders; JSON numbers without
// a fractional part bind as integers, with one as floats. Query requests
// may carry deadline_ms (a server-enforced execution budget) and an
// X-Ranksql-Trace header (a propagated trace ID; one is minted when
// absent).
//
// /metrics, /insight/*, the trace log and every counted error answer come
// from obs.Metrics, which the sharding router embeds too, so a series or
// a /stats total means the same thing on either daemon.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ranksql"
	"ranksql/internal/idle"
	"ranksql/internal/obs"
	"ranksql/internal/wire"
)

// Server is the ranksqld HTTP query service.
type Server struct {
	db       *ranksql.DB
	sessions *idle.Table[*Session]
	cursors  *idle.Table[*serverCursor]
	metrics  *metrics
	ttl      time.Duration
	pprof    bool
}

// Option configures a Server.
type Option func(*Server)

// WithTraceLogger sets the structured logger the server writes to: one
// Debug record per query (trace ID, template, per-span timings), one Warn
// record per slow query, and "serving on" / "shut down" at Info. Default
// slog.Default().
func WithTraceLogger(l *slog.Logger) Option {
	return func(s *Server) { s.metrics.Tracer = l }
}

// WithSlowQueryThreshold enables the slow-query log: queries taking
// longer than d are counted and logged at Warn with their span
// breakdown. d <= 0 disables it (the default).
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(s *Server) { s.metrics.SlowQuery = d }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ on the daemon's
// handler, for CPU/heap profiling of a live server.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithSessionTTL enables idle-session garbage collection: a session
// untouched for longer than ttl is closed (its prepared statements are
// released), and later requests naming it get a clean "expired" error.
// The default session is never collected. The same TTL governs idle
// ranked cursors: one untouched for ttl is closed (its suspended
// operator tree is released) and later pulls get a clean "expired"
// error. ttl <= 0 disables expiry for both.
func WithSessionTTL(ttl time.Duration) Option {
	return func(s *Server) { s.ttl = ttl }
}

// New builds a Server over an opened database. The caller seeds the
// database (schemas, scorers, data) before serving.
func New(db *ranksql.DB, opts ...Option) *Server {
	s := &Server{
		db:      db,
		metrics: newMetrics(),
	}
	for _, o := range opts {
		o(s)
	}
	s.sessions = idle.New(idle.Spec[*Session]{
		Kind: "session", Prefix: "sess", Hint: "open a new session", TTL: s.ttl,
	})
	s.sessions.Pin("", newSession())
	s.cursors = idle.New(idle.Spec[*serverCursor]{
		Kind: "cursor", Prefix: "cur", Hint: "re-open the query", TTL: s.ttl,
		Limit:   maxOpenCursors,
		OnEvict: func(sc *serverCursor) { _ = sc.cur.Close() },
	})
	// Scrape-time gauges over state owned elsewhere: sessions, cursors
	// and the engine's plan cache.
	s.metrics.WatchCursors(s.cursors)
	reg := s.metrics.Reg
	reg.GaugeFunc("ranksqld_sessions", "Open sessions.",
		func() float64 { return float64(s.sessions.Len()) })
	reg.GaugeFunc("ranksqld_plan_cache_entries", "Compiled plans cached.",
		func() float64 { return float64(s.db.PlanCacheStats().Entries) })
	reg.GaugeFunc("ranksqld_plan_cache_hits_total", "Plan cache hits.",
		func() float64 { return float64(s.db.PlanCacheStats().Hits) })
	reg.GaugeFunc("ranksqld_plan_cache_misses_total", "Plan cache misses.",
		func() float64 { return float64(s.db.PlanCacheStats().Misses) })
	reg.GaugeFunc("ranksqld_cursor_pinned_bytes",
		"Bytes pinned by all open cursors' suspended state (buffered tuples and parked pages).",
		func() float64 { return float64(s.cursorPinnedBytes()) })
	return s
}

// Registry exposes the server's metrics registry (tests and embedders).
func (s *Server) Registry() *obs.Registry { return s.metrics.Reg }

// DB returns the underlying database (for seeding and tests).
func (s *Server) DB() *ranksql.DB { return s.db }

// Handler returns the HTTP handler serving the daemon's endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/session", wire.Post(s.handleSessionOpen))
	mux.HandleFunc("/session/close", wire.Post(s.handleSessionClose))
	mux.HandleFunc("/prepare", wire.Post(s.handlePrepare))
	mux.HandleFunc("/stmt/close", wire.Post(s.handleStmtClose))
	mux.HandleFunc("/query", wire.Post(s.handleQuery))
	mux.HandleFunc("/cursor/next", wire.Post(s.handleCursorNext))
	mux.HandleFunc("/cursor/close", wire.Post(s.handleCursorClose))
	mux.HandleFunc("/exec", wire.Post(s.handleExec))
	mux.HandleFunc("/load", s.handleLoad)
	mux.HandleFunc("/stats", s.handleStats)
	s.metrics.Mount(mux)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if s.pprof {
		wire.MountPprof(mux)
	}
	return mux
}

// Serve listens on addr and serves until ctx is cancelled, then shuts
// down gracefully (in-flight requests get up to 5 seconds to finish).
func (s *Server) Serve(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeListener(ctx, ln)
}

// ServeListener is Serve over an existing listener (tests use :0).
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	return wire.ServeListener(ctx, ln, s.Handler(), s.metrics.Tracer, "ranksqld")
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, _ *http.Request, _ *wire.Request) {
	id, err := s.sessions.Add(newSession())
	if err != nil {
		wire.WriteError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"session_id": id})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, _ *http.Request, req *wire.Request) {
	if _, err := s.sessions.Remove(req.SessionID); err != nil {
		wire.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

func (s *Server) handlePrepare(w http.ResponseWriter, _ *http.Request, req *wire.Request) {
	if strings.TrimSpace(req.SQL) == "" {
		wire.WriteError(w, http.StatusBadRequest, "sql is required")
		return
	}
	sess, err := s.sessions.Get(req.SessionID)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	stmt, err := s.db.Prepare(req.SQL)
	if err != nil {
		s.metrics.Fail(w, http.StatusBadRequest, "", err.Error())
		return
	}
	id, ok := sess.addStmt(stmt)
	if !ok {
		wire.WriteError(w, http.StatusTooManyRequests, fmt.Sprintf(
			"session %q already holds %d prepared statements; close some via /stmt/close", req.SessionID, maxStmtsPerSession))
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"session_id": req.SessionID,
		"stmt_id":    id,
		"num_params": stmt.NumParams(),
		"is_query":   stmt.IsQuery(),
		"normalized": stmt.Normalized(),
	})
}

func (s *Server) handleStmtClose(w http.ResponseWriter, _ *http.Request, req *wire.Request) {
	sess, err := s.sessions.Get(req.SessionID)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	if !sess.closeStmt(req.StmtID) {
		wire.WriteError(w, http.StatusNotFound, fmt.Sprintf("no statement %q", req.StmtID))
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

// resolveStmt finds the statement a request refers to: an existing
// prepared one (stmt_id) or an ad-hoc one (sql).
func (s *Server) resolveStmt(req *wire.Request) (*ranksql.Stmt, int, error) {
	switch {
	case req.StmtID != "":
		sess, err := s.sessions.Get(req.SessionID)
		if err != nil {
			return nil, http.StatusNotFound, err
		}
		stmt, ok := sess.stmt(req.StmtID)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("no statement %q in session %q", req.StmtID, req.SessionID)
		}
		return stmt, 0, nil
	case strings.TrimSpace(req.SQL) != "":
		stmt, err := s.db.Prepare(req.SQL)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return stmt, 0, nil
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("either sql or stmt_id is required")
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, req *wire.Request) {
	// The trace ID arrives from an upstream coordinator (the sharded
	// router propagates its own) or is minted here, and stamps every
	// structured log record and the response for cross-tier correlation.
	trace := obs.NewTrace(obs.TraceIDFrom(r))
	w.Header().Set(obs.TraceHeader, trace.ID)

	endResolve := trace.StartSpan("resolve")
	stmt, code, err := s.resolveStmt(req)
	if err != nil {
		s.metrics.Fail(w, code, "", err.Error())
		return
	}
	args, err := wire.DecodeParams(req.Params)
	if err != nil {
		s.metrics.Fail(w, http.StatusBadRequest, stmt.Normalized(), err.Error())
		return
	}
	endResolve()

	if req.Cursor {
		s.handleCursorOpen(w, r, req, trace, stmt, args)
		return
	}

	// A one-shot is page one of a stream nobody keeps: it runs on the
	// engine's pooled Query path and is answered by the same tail as a
	// cursor page.
	ctx, cancel := req.Context(r.Context())
	defer cancel()
	start := time.Now()
	endExec := trace.StartSpan("execute")
	rows, err := stmt.QueryContext(ctx, args...)
	endExec()
	if err != nil {
		s.pullFailed(ctx, w, r, req, trace, stmt.Normalized(), "", err)
		return
	}
	s.writePage(w, trace, stmt.Normalized(), "", 0, 0, rows, time.Since(start))
}

func (s *Server) handleExec(w http.ResponseWriter, _ *http.Request, req *wire.Request) {
	stmt, code, err := s.resolveStmt(req)
	if err != nil {
		s.metrics.Fail(w, code, "", err.Error())
		return
	}
	args, err := wire.DecodeParams(req.Params)
	if err != nil {
		s.metrics.Fail(w, http.StatusBadRequest, stmt.Normalized(), err.Error())
		return
	}
	res, err := stmt.Exec(args...)
	if err != nil {
		s.metrics.Fail(w, http.StatusBadRequest, stmt.Normalized(), err.Error())
		return
	}
	s.metrics.recordExec()
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"rows_affected": res.RowsAffected,
		"message":       res.Message,
	})
}

// handleLoad is POST /load?table=t[&header=1]: the request body is CSV,
// bulk-loaded into an existing table (see ranksql.LoadCSV). It is the
// ingest path a sharded router fans partitioned row sets through.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	table := r.URL.Query().Get("table")
	if table == "" {
		wire.WriteError(w, http.StatusBadRequest, "table query parameter is required")
		return
	}
	// strconv.ParseBool accepts 1/t/true/0/f/false in any case; anything
	// unrecognized (or absent) means no header row rather than silently
	// swallowing the first data row.
	header, _ := strconv.ParseBool(r.URL.Query().Get("header"))
	n, err := s.db.LoadCSV(table, r.Body, header)
	if err != nil {
		s.metrics.Fail(w, http.StatusBadRequest, "", err.Error())
		return
	}
	s.metrics.recordExec()
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"rows_loaded": n})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	snap := s.metrics.snapshot()
	cs := s.db.PlanCacheStats()
	snap.PlanCache = CacheSnapshot{
		Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
		StaleRecompiles: cs.StaleRecompiles,
		Entries:         cs.Entries, Capacity: cs.Capacity, HitRate: cs.HitRate(),
	}
	snap.Sessions = s.sessions.Len()
	snap.SessionsExpired = s.sessions.Expired()
	snap.Cursors.Open = s.cursors.Len()
	snap.Cursors.Expired = s.cursors.Expired()
	snap.Resources.CursorPinnedBytes = s.cursorPinnedBytes()
	snap.TablesServed = s.db.Tables()
	wire.WriteJSON(w, http.StatusOK, snap)
}
