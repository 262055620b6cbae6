// Package router implements the ranksqld sharding coordinator: a daemon
// speaking the same HTTP/JSON protocol as internal/server, but backed by
// N ranksqld shards instead of an embedded engine.
//
// Tables are hash-partitioned across shards on a per-table partition key
// (default: the first column; override with "partition_key" on CREATE
// TABLE). DDL fans out to every shard; INSERT statements and CSV /load
// bodies are split row-by-row on the partition key's hash. Top-k SELECTs
// are answered by sending the same parameterized fetch text, k deep, to
// every shard in one parallel round and merging the returned ranked
// streams with a threshold-algorithm-style max-heap merge (see merge.go):
// because every shard's stream arrives in non-increasing score order with
// an "exhausted at depth d" marker, the coordinator can stop — and skip
// refetching entire shards — as soon as the k-th result dominates every
// shard's remaining-score bound.
//
// Joins are correct when the joined tables are co-partitioned on the
// join key (partition both tables by it); the router does not reshuffle
// rows between shards.
//
// The router's accounting is ranksqld's: queries, errors, latency, tuple
// traffic, cursors, the insight ring and the trace log come from the
// obs.Metrics both daemons embed, under ranksql_router_* names, so a
// series means the same thing on either tier. Only what a coordinator has
// is its own: merge effectiveness (pruned shards, refills, rows fetched),
// replica reliability (failovers, hedges, cursor re-opens), the ranked-
// result cache and per-shard health.
package router

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ranksql/internal/idle"
	"ranksql/internal/lru"
	"ranksql/internal/obs"
	"ranksql/internal/sql"
	"ranksql/internal/types"
	"ranksql/internal/wire"
)

// Router is the sharding coordinator.
type Router struct {
	shards  []*shardClient
	metrics *metrics
	pprof   bool
	// cursors holds the registered ranked cursors; cursorTTL (fixed at New
	// time) is how long one may sit unused before it is collected.
	cursors   *idle.Table[*routerCursor]
	cursorTTL time.Duration

	// hedgeDelay arms hedged merge pulls on every shard client (see
	// shardRead); resultCacheCap sizes the router-side ranked-result
	// cache (<= 0 disables it). Both are fixed at New time.
	hedgeDelay     time.Duration
	resultCacheCap int
	results        *lru.Cache[resultKey, *resultEntry]

	mu       sync.Mutex
	tables   map[string]*tableInfo
	stmts    map[string]*template // client-visible prepared statements
	nextStmt uint64
	// schemaVersion counts DDL statements the router has fanned out;
	// result-cache keys embed it so any schema change orphans every
	// cached answer (mirrors the engine plan cache's version key).
	schemaVersion uint64
}

// tableInfo is the router's catalog entry for a partitioned table,
// learned from the CREATE TABLE statements it forwards.
type tableInfo struct {
	name   string
	cols   []string // lower-cased, in declaration order
	kinds  []types.Kind
	keyCol int // partition column index
	// rows counts rows the router has routed into the table (INSERT +
	// /load); the result cache snapshots it to detect staleness. It is
	// guarded by Router.mu, like the rest of the catalog entry.
	rows uint64
}

// Option configures a Router.
type Option func(*Router)

// WithHedgeDelay arms hedged reads: when a shard's preferred replica
// has not answered a merge pull within d, the same pull is issued to
// the shard's next replica and the first answer wins. d <= 0 (the
// default) disables hedging; shards with a single replica never hedge.
func WithHedgeDelay(d time.Duration) Option {
	return func(r *Router) { r.hedgeDelay = d }
}

// WithResultCache sizes the router-side ranked-result cache (entries).
// capacity <= 0 disables it; the default is defaultResultCacheCap.
func WithResultCache(capacity int) Option {
	return func(r *Router) { r.resultCacheCap = capacity }
}

// WithTraceLogger sets the structured logger the router writes to: one
// Debug record per merged query (trace ID, template, per-span timings
// including per-shard fetch rounds), one Warn record per slow query, and
// "serving on" / "shut down" at Info. Default slog.Default().
func WithTraceLogger(l *slog.Logger) Option {
	return func(r *Router) { r.metrics.Tracer = l }
}

// WithSlowQueryThreshold enables the slow-query log: merged queries
// taking longer than d are counted and logged at Warn with their span
// breakdown. d <= 0 disables it (the default).
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(r *Router) { r.metrics.SlowQuery = d }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ on the router's
// handler.
func WithPprof() Option {
	return func(r *Router) { r.pprof = true }
}

// WithCursorTTL enables idle-cursor garbage collection: router cursors
// unused for longer than ttl are closed (their shard-side cursors
// released), and later /cursor/next calls naming them get a clean
// "expired" error. ttl <= 0 (the default) keeps cursors until the
// client closes them.
func WithCursorTTL(ttl time.Duration) Option {
	return func(r *Router) { r.cursorTTL = ttl }
}

// New builds a Router over the given shard specs. Each spec is one
// shard: either a single base URL (http://host:port) or a
// comma-separated replica group ("http://a:1,http://b:1") whose members
// hold identical copies of the shard's partition — the router fans
// writes to all of them and fails reads over between them.
func New(shardURLs []string, opts ...Option) (*Router, error) {
	if len(shardURLs) == 0 {
		return nil, fmt.Errorf("router: at least one shard URL is required")
	}
	client := &http.Client{Timeout: 30 * time.Second}
	r := &Router{
		metrics:        newMetrics(),
		tables:         map[string]*tableInfo{},
		stmts:          map[string]*template{},
		resultCacheCap: defaultResultCacheCap,
	}
	for i, group := range shardURLs {
		sc := &shardClient{id: i, m: r.metrics}
		for j, u := range strings.Split(group, ",") {
			u = strings.TrimRight(strings.TrimSpace(u), "/")
			if u == "" {
				return nil, fmt.Errorf("router: shard %d, replica %d has an empty URL", i, j)
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			sc.replicas = append(sc.replicas, &replica{idx: j, base: u, http: client})
		}
		r.shards = append(r.shards, sc)
	}
	for _, o := range opts {
		o(r)
	}
	for _, sc := range r.shards {
		sc.hedgeDelay = r.hedgeDelay
	}
	r.cursors = idle.New(idle.Spec[*routerCursor]{
		Kind: "cursor", Prefix: "rcur", Hint: "re-open the query", TTL: r.cursorTTL,
		Limit: maxOpenRouterCursors,
		// Closing shard cursors is network I/O bounded by cursorClose's own
		// timeout; the request whose table access ran the sweep does not
		// wait for it.
		OnEvict: func(rc *routerCursor) { go rc.closeShardCursors(nil) },
	})
	r.metrics.WatchCursors(r.cursors)
	if r.resultCacheCap > 0 {
		r.results = lru.New[resultKey, *resultEntry](r.resultCacheCap)
		r.metrics.Reg.GaugeFunc("ranksql_router_result_cache_entries",
			"Entries currently held by the router-side ranked-result cache.",
			func() float64 { return float64(r.results.Stats().Entries) })
	}
	return r, nil
}

// NumShards returns the number of backends.
func (r *Router) NumShards() int { return len(r.shards) }

// Handler returns the HTTP handler serving the router's endpoints (the
// same protocol as internal/server, so clients work against either).
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/session", wire.Post(r.handleSessionOpen))
	mux.HandleFunc("/session/close", wire.Post(r.handleSessionClose))
	mux.HandleFunc("/prepare", wire.Post(r.handlePrepare))
	mux.HandleFunc("/stmt/close", wire.Post(r.handleStmtClose))
	mux.HandleFunc("/query", wire.Post(r.handleQuery))
	mux.HandleFunc("/cursor/next", wire.Post(r.handleCursorNext))
	mux.HandleFunc("/cursor/close", wire.Post(r.handleCursorClose))
	mux.HandleFunc("/exec", wire.Post(r.handleExec))
	mux.HandleFunc("/load", r.handleLoad)
	mux.HandleFunc("/stats", r.handleStats)
	r.metrics.Mount(mux)
	mux.HandleFunc("/healthz", r.handleHealthz)
	if r.pprof {
		wire.MountPprof(mux)
	}
	return mux
}

// Registry exposes the router's metrics registry (tests and embedders).
func (r *Router) Registry() *obs.Registry { return r.metrics.Reg }

// ServeListener serves the router's handler on ln until ctx is
// cancelled, then shuts down gracefully (see wire.ServeListener).
func (r *Router) ServeListener(ctx context.Context, ln net.Listener) error {
	return wire.ServeListener(ctx, ln, r.Handler(), r.metrics.Tracer, "ranksqld-router", "shards", len(r.shards))
}

// maxRouterStmts bounds the router's prepared-statement namespace the way
// ranksqld bounds a session (same cap, same 429), so clients that never
// /stmt/close cannot grow router memory without limit.
const maxRouterStmts = 1024

// The router is sessionless: prepared statements live in one shared
// namespace, and each shard's plan cache holds the compiled plans of the
// fetch texts they send. /session is accepted for client compatibility
// and returns a fixed id.
func (r *Router) handleSessionOpen(w http.ResponseWriter, _ *http.Request, _ *wire.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]string{"session_id": "router"})
}

func (r *Router) handleSessionClose(w http.ResponseWriter, _ *http.Request, _ *wire.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

// template is a parsed statement the router can fan out: SELECTs carry a
// selectTemplate with the shard-side fetch form; other statements are
// replayed through the partitioning exec path.
type template struct {
	src       string
	norm      string
	numParams int
	stmt      sql.Stmt
	sel       *selectTemplate // non-nil for SELECT
}

// selectTemplate is the fan-out form of a top-k SELECT. The shard-side
// fetch text always exposes the LIMIT as a parameter, so every fetch
// depth — the first round and each refill — binds the same text, which
// each shard's plan cache finds by its normalized template (k is part of
// that cache's key, so each depth keeps its own rank-aware plan). A
// fetch text with no parameter at all — a SELECT without `?` and without
// LIMIT — is compiled afresh on every shard call.
type selectTemplate struct {
	fetchSQL   string
	limitSlot  int // 1-based limit position in the shard param list; 0 = none
	clientKPos int // 1-based LIMIT ? position in the client param list; 0 = literal/none
	litK       int // literal client LIMIT (0 = none)
	ranked     bool
	// tables are the referenced table names (lower-cased): the result
	// cache snapshots their router-tracked row counts for staleness.
	tables []string
}

// parseTemplate parses and canonicalizes a statement; SELECTs get their
// shard fetch form built. sql.Normalize is the single notion of template
// identity, shared with the shards' plan caches.
func parseTemplate(src string) (*template, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	if _, ok := st.(*sql.SetOpStmt); ok {
		return nil, fmt.Errorf("router: set-operation statements are not supported through the router (run them per shard)")
	}
	norm := sql.Normalize(st)
	t := &template{src: src, norm: norm, numParams: sql.CountParams(st), stmt: st}
	if sel, ok := st.(*sql.SelectStmt); ok {
		s := &selectTemplate{ranked: len(sel.Order) > 0}
		for _, tr := range sel.Tables {
			s.tables = append(s.tables, strings.ToLower(tr.Name))
		}
		switch {
		case sel.LimitParam > 0:
			s.fetchSQL = norm
			s.limitSlot = sel.LimitParam
			s.clientKPos = sel.LimitParam
		case sel.Limit > 0:
			fetch := *sel
			fetch.Limit = 0
			fetch.LimitParam = t.numParams + 1
			s.fetchSQL = sql.Normalize(&fetch)
			s.limitSlot = t.numParams + 1
			s.litK = sel.Limit
		default:
			s.fetchSQL = norm
		}
		t.sel = s
	}
	return t, nil
}

func (r *Router) handlePrepare(w http.ResponseWriter, _ *http.Request, req *wire.Request) {
	if strings.TrimSpace(req.SQL) == "" {
		wire.WriteError(w, http.StatusBadRequest, "sql is required")
		return
	}
	t, err := parseTemplate(req.SQL)
	if err != nil {
		r.metrics.Fail(w, http.StatusBadRequest, "", err.Error())
		return
	}
	r.mu.Lock()
	if len(r.stmts) >= maxRouterStmts {
		r.mu.Unlock()
		wire.WriteError(w, http.StatusTooManyRequests, fmt.Sprintf(
			"session %q already holds %d prepared statements; close some via /stmt/close", "router", maxRouterStmts))
		return
	}
	r.nextStmt++
	id := fmt.Sprintf("stmt-%d", r.nextStmt)
	r.stmts[id] = t
	r.mu.Unlock()
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"session_id": "router",
		"stmt_id":    id,
		"num_params": t.numParams,
		"is_query":   t.sel != nil,
		"normalized": t.norm,
	})
}

func (r *Router) handleStmtClose(w http.ResponseWriter, _ *http.Request, req *wire.Request) {
	r.mu.Lock()
	_, ok := r.stmts[req.StmtID]
	delete(r.stmts, req.StmtID)
	r.mu.Unlock()
	if !ok {
		wire.WriteError(w, http.StatusNotFound, fmt.Sprintf("no statement %q", req.StmtID))
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

func (r *Router) resolveTemplate(req *wire.Request) (*template, int, error) {
	switch {
	case req.StmtID != "":
		r.mu.Lock()
		t, ok := r.stmts[req.StmtID]
		r.mu.Unlock()
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("no statement %q", req.StmtID)
		}
		return t, 0, nil
	case strings.TrimSpace(req.SQL) != "":
		t, err := parseTemplate(req.SQL)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return t, 0, nil
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("either sql or stmt_id is required")
	}
}

func (r *Router) handleQuery(w http.ResponseWriter, hr *http.Request, req *wire.Request) {
	// The trace ID is minted here (or propagated from an upstream
	// caller) and travels to every shard fetch via the X-Ranksql-Trace
	// header, so one merged query correlates across the whole cluster.
	trace := obs.NewTrace(obs.TraceIDFrom(hr))
	w.Header().Set(obs.TraceHeader, trace.ID)

	endPlan := trace.StartSpan("plan")
	t, code, err := r.resolveTemplate(req)
	if err != nil {
		r.metrics.Fail(w, code, "", err.Error())
		return
	}
	endPlan()
	if t.sel == nil {
		r.metrics.Fail(w, http.StatusBadRequest, t.norm, "statement is not a query; use /exec")
		return
	}
	if len(req.Params) != t.numParams {
		r.metrics.Fail(w, http.StatusBadRequest, t.norm,
			fmt.Sprintf("statement has %d parameter(s), %d value(s) bound", t.numParams, len(req.Params)))
		return
	}
	k := t.sel.litK
	if t.sel.clientKPos > 0 {
		k, err = paramInt(req.Params[t.sel.clientKPos-1])
		if err != nil || k <= 0 {
			r.metrics.Fail(w, http.StatusBadRequest, t.norm, "LIMIT parameter must be a positive integer")
			return
		}
	}

	// Either way the answer is page one of a merged ranked stream. A
	// cursor request registers the stream and pages it by fetch; a
	// one-shot's page is the whole top-k (everything, without a LIMIT) of
	// a stream nobody keeps, drawn from one-shot shard streams.
	pageSize, id := k, ""
	var rc *routerCursor
	var bindKey string
	var tableSnap map[string]uint64 // non-nil: the answer may be cached
	if req.Cursor {
		if pageSize = req.Fetch; pageSize <= 0 {
			if pageSize = k; pageSize <= 0 {
				pageSize = defaultCursorPage
			}
		}
		rc = r.newCursor(t, req.Params, pageSize, true)
		if id, err = r.cursors.Add(rc); err != nil {
			r.metrics.Fail(w, http.StatusTooManyRequests, t.norm, "router "+err.Error())
			return
		}
		r.metrics.CursorsOpened.Inc()
	} else {
		// Result-cache lookup: a template hit with identical bindings and k
		// is served straight from the router with zero shard fan-out, as
		// long as no schema change or row growth has invalidated it. The
		// row-count snapshot for a potential store is taken *before* the
		// fan-out: a write landing while the merge runs then bumps the
		// count past the snapshot and the entry can never serve stale rows.
		if key, cacheable := renderBindings(req.Params); cacheable && r.results != nil {
			start := time.Now()
			if ent, ok := r.lookupResult(t, key, k); ok {
				r.serveCachedResult(w, trace, t, k, ent, time.Since(start))
				return
			}
			r.metrics.resultCacheMisses.Inc()
			bindKey, tableSnap = key, r.snapshotTables(t.sel.tables)
		}
		rc = r.newCursor(t, req.Params, pageSize, false)
	}
	resp := r.pullPage(w, hr, req, trace, id, rc, pageSize, 0)
	if id != "" && (resp == nil || hr.Context().Err() != nil) {
		// A first page that failed, or whose client left, delivers no
		// cursor id, so no client could ever close the cursor: close it.
		if rc, err := r.cursors.Remove(id); err == nil {
			rc.closeShardCursors(trace)
		}
		return
	}
	if resp == nil {
		return
	}
	if tableSnap != nil && len(resp.Rows) <= maxCachedResultRows {
		r.storeResult(t, bindKey, k, tableSnap, resp)
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// queryReplica runs a select template's fetch text on one replica at
// depth limit — as a one-shot, or (cursor) opening a shard-side ranked
// cursor whose first page is limit rows. It is one /query request
// carrying the SQL text and its parameters: the shard keeps no state for
// the router between calls, and its plan cache, keyed on the normalized
// text and k, skips re-planning a repeated fetch.
func (r *Router) queryReplica(ctx context.Context, rep *replica, t *template, params []interface{}, trace string, deadlineMS, limit int, cursor bool) (*wire.QueryResponse, error) {
	req := wire.Request{SQL: t.sel.fetchSQL, Params: params, DeadlineMS: deadlineMS, Cursor: cursor}
	if cursor {
		req.Fetch = limit
	}
	// The fetch text exposes its LIMIT as a parameter: overwrite the
	// client's, or append the one the fetch form added.
	if slot := t.sel.limitSlot; slot > 0 {
		req.Params = append(make([]interface{}, 0, len(params)+1), params...)
		if slot <= len(params) {
			req.Params[slot-1] = limit
		} else {
			req.Params = append(req.Params, limit)
		}
	}
	return rep.page(ctx, "/query", trace, &req)
}

func (r *Router) handleExec(w http.ResponseWriter, hr *http.Request, req *wire.Request) {
	t, code, err := r.resolveTemplate(req)
	if err != nil {
		r.metrics.Fail(w, code, "", err.Error())
		return
	}
	if t.sel != nil {
		r.metrics.Fail(w, http.StatusBadRequest, t.norm, "use /query for SELECT statements")
		return
	}
	args, err := wire.DecodeParams(req.Params)
	if err != nil {
		r.metrics.Fail(w, http.StatusBadRequest, t.norm, err.Error())
		return
	}
	bound, err := sql.BindParams(t.stmt, toValues(args))
	if err != nil {
		r.metrics.Fail(w, http.StatusBadRequest, t.norm, err.Error())
		return
	}

	// The request context travels into the shard fan-out so a dropped
	// client connection (or deadline_ms budget) cancels in-flight shard
	// calls instead of letting them run to completion unobserved.
	ctx, cancel := req.Context(hr.Context())
	defer cancel()

	var affected int
	var message string
	switch s := bound.(type) {
	case *sql.InsertStmt:
		affected, err = r.partitionInsert(ctx, s)
		if err != nil {
			r.metrics.Fail(w, http.StatusBadGateway, t.norm, err.Error())
			return
		}
		r.noteRows(s.Table, affected)
	case *sql.CreateTableStmt:
		if err := r.registerTable(s, req.PartitionKey); err != nil {
			r.metrics.Fail(w, http.StatusBadRequest, t.norm, err.Error())
			return
		}
		if err := r.fanoutExec(ctx, sql.Normalize(bound), alreadyExists); err != nil {
			r.unregisterTable(s.Name)
			r.metrics.Fail(w, http.StatusBadGateway, t.norm, err.Error())
			return
		}
		r.bumpSchemaVersion()
		message = "CREATE TABLE (all shards)"
	case *sql.DropTableStmt:
		if err := r.fanoutExec(ctx, sql.Normalize(bound), doesNotExist); err != nil {
			r.metrics.Fail(w, http.StatusBadGateway, t.norm, err.Error())
			return
		}
		r.unregisterTable(s.Name)
		r.bumpSchemaVersion()
		message = "DROP TABLE (all shards)"
	default:
		// CREATE [RANK] INDEX and friends: idempotent on replay, like
		// CREATE TABLE, so partially-applied DDL can be re-issued.
		if err := r.fanoutExec(ctx, sql.Normalize(bound), alreadyExists); err != nil {
			r.metrics.Fail(w, http.StatusBadGateway, t.norm, err.Error())
			return
		}
		r.bumpSchemaVersion()
		message = "OK (all shards)"
	}
	r.metrics.Execs.Inc()
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"rows_affected": affected,
		"message":       message,
	})
}

// registerTable records a table's schema and partition key in the
// router catalog.
func (r *Router) registerTable(s *sql.CreateTableStmt, partitionKey string) error {
	ti := &tableInfo{name: s.Name}
	for _, c := range s.Columns {
		ti.cols = append(ti.cols, strings.ToLower(c.Name))
		ti.kinds = append(ti.kinds, c.Kind)
	}
	if partitionKey != "" {
		ti.keyCol = -1
		for i, c := range ti.cols {
			if c == strings.ToLower(partitionKey) {
				ti.keyCol = i
			}
		}
		if ti.keyCol < 0 {
			return fmt.Errorf("router: partition_key %q is not a column of %s", partitionKey, s.Name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tables[strings.ToLower(s.Name)]; ok {
		return fmt.Errorf("router: table %q already exists", s.Name)
	}
	r.tables[strings.ToLower(s.Name)] = ti
	return nil
}

func (r *Router) unregisterTable(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.tables, strings.ToLower(name))
}

func (r *Router) tableInfo(name string) (*tableInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ti, ok := r.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("router: unknown table %q (create it through the router so it learns the partitioning)", name)
	}
	return ti, nil
}

// partition maps a partition-key value to a shard index. types.Value
// hashing is deterministic (FNV over the canonical encoding), so every
// ingest path — INSERT literals, bound parameters, CSV cells — lands a
// given key on the same shard.
func partition(v types.Value, nShards int) int {
	return int(v.Hash() % uint64(nShards))
}

// partitionInsert splits a bound INSERT's rows by partition key and
// sends each shard its subset (in parallel) as a literal INSERT, to
// every replica of the shard — the router is the replication layer.
func (r *Router) partitionInsert(ctx context.Context, s *sql.InsertStmt) (int, error) {
	ti, err := r.tableInfo(s.Table)
	if err != nil {
		return 0, err
	}
	groups := make([][][]types.Value, len(r.shards))
	for _, row := range s.Rows {
		if ti.keyCol >= len(row) {
			return 0, fmt.Errorf("router: row has %d column(s), partition key is column %d", len(row), ti.keyCol+1)
		}
		g := partition(row[ti.keyCol], len(r.shards))
		groups[g] = append(groups[g], row)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(r.shards))
	counts := make([]int, len(r.shards))
	for i, sc := range r.shards {
		if len(groups[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sc *shardClient) {
			defer wg.Done()
			ins := &sql.InsertStmt{Table: s.Table, Rows: groups[i]}
			counts[i], errs[i] = sc.execAll(ctx, sql.Normalize(ins), nil)
		}(i, sc)
	}
	wg.Wait()
	total := 0
	for i := range r.shards {
		if errs[i] != nil {
			return total, fmt.Errorf("shard %d (%s): %w", i, r.shards[i].addr(), errs[i])
		}
		total += counts[i]
	}
	return total, nil
}

// fanoutExec runs a statement on every replica of every shard in
// parallel, failing if any fails (replicas may then diverge; see the
// README's failure notes). A non-nil tolerate func marks per-replica
// errors that mean the statement had already taken effect there (e.g.
// "already exists" on a re-issued CREATE TABLE), so replaying DDL after
// a partial failure converges the divergent copies instead of wedging
// on the ones that succeeded.
func (r *Router) fanoutExec(ctx context.Context, sqlText string, tolerate func(error) bool) error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.shards))
	for i, sc := range r.shards {
		wg.Add(1)
		go func(i int, sc *shardClient) {
			defer wg.Done()
			_, errs[i] = sc.execAll(ctx, sqlText, tolerate)
		}(i, sc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// bumpSchemaVersion records a fanned-out DDL statement: result-cache
// keys embed the version, so every cached answer minted before the DDL
// becomes unreachable (and is purged eagerly).
func (r *Router) bumpSchemaVersion() {
	r.mu.Lock()
	r.schemaVersion++
	r.mu.Unlock()
	if r.results != nil {
		r.results.Clear()
	}
}

// noteRows advances the router-tracked row count of a table after a
// successful routed write; the result cache compares these counts
// against its per-entry snapshots to detect stale answers.
func (r *Router) noteRows(table string, n int) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	if ti, ok := r.tables[strings.ToLower(table)]; ok {
		ti.rows += uint64(n)
	}
	r.mu.Unlock()
}

func alreadyExists(err error) bool { return strings.Contains(err.Error(), "already exists") }
func doesNotExist(err error) bool  { return strings.Contains(err.Error(), "does not exist") }

// handleLoad is POST /load?table=t[&header=1]: the CSV body is split
// row-by-row on the partition key and forwarded to each shard's /load.
func (r *Router) handleLoad(w http.ResponseWriter, hr *http.Request) {
	if hr.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	table := hr.URL.Query().Get("table")
	if table == "" {
		wire.WriteError(w, http.StatusBadRequest, "table query parameter is required")
		return
	}
	ti, err := r.tableInfo(table)
	if err != nil {
		r.metrics.Fail(w, http.StatusBadRequest, "", err.Error())
		return
	}
	// Same convention as the server's /load: only recognized true values
	// ("1", "t", "true", any case) skip a header row.
	header, _ := strconv.ParseBool(hr.URL.Query().Get("header"))
	cr := csv.NewReader(hr.Body)
	cr.FieldsPerRecord = len(ti.cols)
	bufs := make([]bytes.Buffer, len(r.shards))
	writers := make([]*csv.Writer, len(r.shards))
	for i := range writers {
		writers[i] = csv.NewWriter(&bufs[i])
	}
	first := true
	n := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.metrics.Fail(w, http.StatusBadRequest, "", fmt.Sprintf("csv row %d: %v", n+1, err))
			return
		}
		if first && header {
			first = false
			continue
		}
		first = false
		key, err := types.ParseCell(rec[ti.keyCol], ti.kinds[ti.keyCol])
		if err != nil {
			r.metrics.Fail(w, http.StatusBadRequest, "", fmt.Sprintf("csv row %d: partition key %q: %v", n+1, rec[ti.keyCol], err))
			return
		}
		g := partition(key, len(r.shards))
		if err := writers[g].Write(rec); err != nil {
			r.metrics.Fail(w, http.StatusInternalServerError, "", err.Error())
			return
		}
		n++
	}
	var wg sync.WaitGroup
	errs := make([]error, len(r.shards))
	counts := make([]int, len(r.shards))
	for i, sc := range r.shards {
		writers[i].Flush()
		if bufs[i].Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sc *shardClient) {
			defer wg.Done()
			counts[i], errs[i] = sc.loadAll(hr.Context(), table, bufs[i].Bytes())
		}(i, sc)
	}
	wg.Wait()
	total := 0
	for i := range r.shards {
		if errs[i] != nil {
			r.metrics.Fail(w, http.StatusBadGateway, "", fmt.Sprintf("shard %d: %v", i, errs[i]))
			return
		}
		total += counts[i]
	}
	r.noteRows(table, total)
	r.metrics.loads.Inc()
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"rows_loaded": total})
}

func (r *Router) handleStats(w http.ResponseWriter, hr *http.Request) {
	if hr.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	snap := r.metrics.snapshot()
	snap.Shards = len(r.shards)
	snap.ShardHealth = r.probeShards()
	if r.results != nil {
		snap.ResultCache = r.resultCacheStats()
	}
	snap.Cursors.Open = r.cursors.Len()
	snap.Cursors.Expired = r.cursors.Expired()
	wire.WriteJSON(w, http.StatusOK, snap)
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	health := r.probeShards()
	allUp := true
	for _, h := range health {
		allUp = allUp && h.Healthy
	}
	code := http.StatusOK
	status := "ok"
	if !allUp {
		code = http.StatusServiceUnavailable
		status = "degraded"
	}
	wire.WriteJSON(w, code, map[string]interface{}{"status": status, "shards": health})
}

// probeShards health-checks every replica of every shard in parallel.
// A shard counts as healthy while any of its replicas answers: the
// partition is still reachable through the survivors.
func (r *Router) probeShards() []ShardStatus {
	out := make([]ShardStatus, len(r.shards))
	var wg sync.WaitGroup
	for i, sc := range r.shards {
		out[i] = ShardStatus{ID: sc.id, Base: sc.addr(), Replicas: make([]ReplicaStatus, len(sc.replicas))}
		for j, rep := range sc.replicas {
			wg.Add(1)
			go func(i, j int, rep *replica) {
				defer wg.Done()
				out[i].Replicas[j] = ReplicaStatus{
					Index:    j,
					Base:     rep.base,
					Healthy:  rep.healthy(),
					Requests: rep.requests.Load(),
					Failures: rep.failures.Load(),
				}
			}(i, j, rep)
		}
	}
	wg.Wait()
	for i := range out {
		for _, rs := range out[i].Replicas {
			if rs.Healthy {
				out[i].Healthy = true
			}
		}
	}
	return out
}

// paramInt reads an integer request parameter (JSON numbers decode as
// json.Number under UseNumber).
func paramInt(p interface{}) (int, error) {
	switch v := p.(type) {
	case json.Number:
		n, err := v.Int64()
		return int(n), err
	case float64:
		return int(v), nil
	case int:
		return v, nil
	default:
		return 0, fmt.Errorf("router: expected an integer, got %T", p)
	}
}

// toValues converts decoded parameters (wire.DecodeParams' scalars) to
// engine values for binding.
func toValues(args []interface{}) []types.Value {
	vals := make([]types.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			vals[i] = types.Null()
		case bool:
			vals[i] = types.NewBool(v)
		case string:
			vals[i] = types.NewString(v)
		case int64:
			vals[i] = types.NewInt(v)
		case float64:
			vals[i] = types.NewFloat(v)
		}
	}
	return vals
}
