package ranksql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"ranksql/internal/exec"
	"ranksql/internal/optimizer"
	"ranksql/internal/schema"
	"ranksql/internal/sql"
	"ranksql/internal/types"
)

// Stmt is a prepared statement: parsed once, executable many times with
// different `?` parameter bindings. A Stmt is immutable and safe for
// concurrent use: every execution writes its parameter values into the
// private slots of the plan instance it runs on, never into the template
// or the cached plan. Prepared SELECTs share the DB's plan cache, so
// repeated executions (and identical templates prepared elsewhere) skip
// optimization entirely.
type Stmt struct {
	db        *DB
	src       string
	norm      string
	stmt      sql.Stmt
	numParams int

	// Literal-only (zero-parameter) SELECTs are cached per statement
	// rather than in the shared LRU: their normalized text embeds the
	// literals, so admitting them globally would let ad-hoc traffic
	// churn out the genuinely reusable parameterized templates.
	localMu      sync.Mutex
	localPlan    *compiledPlan
	localVersion uint64
}

// Prepare parses a statement template containing `?` placeholders.
// Placeholders may appear in WHERE clauses, LIMIT bounds and INSERT
// values; they are bound positionally by Query/Exec arguments.
func (db *DB) Prepare(src string) (*Stmt, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	if _, ok := st.(*sql.SetOpStmt); ok && sql.CountParams(st) > 0 {
		return nil, fmt.Errorf("engine: parameters are not supported in set-operation statements")
	}
	return &Stmt{
		db:        db,
		src:       src,
		norm:      sql.Normalize(st),
		stmt:      st,
		numParams: sql.CountParams(st),
	}, nil
}

// SQL returns the original statement text.
func (s *Stmt) SQL() string { return s.src }

// Normalized returns the canonical template text — the statement
// component of the plan-cache key.
func (s *Stmt) Normalized() string { return s.norm }

// NumParams returns the number of `?` placeholders in the statement.
func (s *Stmt) NumParams() int { return s.numParams }

// IsQuery reports whether the statement returns rows (SELECT / set op).
func (s *Stmt) IsQuery() bool {
	switch s.stmt.(type) {
	case *sql.SelectStmt, *sql.SetOpStmt:
		return true
	}
	return false
}

// Query executes a prepared SELECT with the given parameter values.
// Supported argument types: nil, bool, int, int32, int64, float32,
// float64, string and Value.
func (s *Stmt) Query(args ...interface{}) (*Rows, error) {
	return s.QueryContext(context.Background(), args...)
}

// QueryContext is Query with cancellation: when ctx is done, execution is
// interrupted at the next cancellation point and ctx's error is returned.
func (s *Stmt) QueryContext(ctx context.Context, args ...interface{}) (*Rows, error) {
	params, release, err := getParams(args)
	if err != nil {
		return nil, err
	}
	defer release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, err := s.db.query(s.stmt, s.norm, params, ctx.Done(), s)
	return rows, ctxErr(ctx, err)
}

// ctxErr reports an execution interrupted because ctx is done as ctx's
// error, and any other error (or nil) as itself.
func ctxErr(ctx context.Context, err error) error {
	if errors.Is(err, exec.ErrInterrupted) && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// Exec executes a prepared DDL/DML statement with the given parameters.
func (s *Stmt) Exec(args ...interface{}) (*Result, error) {
	params, release, err := getParams(args)
	if err != nil {
		return nil, err
	}
	defer release()
	switch s.stmt.(type) {
	case *sql.SelectStmt, *sql.SetOpStmt:
		return nil, fmt.Errorf("engine: use Query for SELECT statements")
	}
	st, err := sql.BindParams(s.stmt, params)
	if err != nil {
		return nil, err
	}
	return s.db.execStmt(st)
}

// streamFor resolves a query statement and its bound values to an
// unopened stream — an instance of the (cached or just compiled) plan for
// a SELECT, a freshly built tree for a set operation — and reports whether
// a cached plan was reused. pr is the prepared Stmt, nil for ad-hoc
// statements. Callers hold db.mu (read side).
func (db *DB) streamFor(st sql.Stmt, norm string, params []types.Value, pr *Stmt) (*stream, bool, error) {
	switch q := st.(type) {
	case *sql.SelectStmt:
		cp, hit, err := db.resolvePlan(q, norm, params, pr)
		if err != nil {
			return nil, false, err
		}
		s, err := cp.acquireInstance()
		return s, hit, err
	case *sql.SetOpStmt:
		// Prepare rejects placeholders in set operations, so any here came
		// in through an ad-hoc entry point.
		if n := sql.CountParams(st); n > 0 || len(params) > 0 {
			return nil, false, fmt.Errorf("engine: set-operation statements take no parameters (%d placeholder(s), %d value(s))", n, len(params))
		}
		s, err := db.buildSetOp(q)
		return s, false, err
	default:
		return nil, false, fmt.Errorf("engine: statement is not a query; use Exec")
	}
}

// explainFlags reads EXPLAIN and EXPLAIN ANALYZE off a query statement.
func explainFlags(st sql.Stmt) (explain, analyze bool) {
	switch q := st.(type) {
	case *sql.SelectStmt:
		return q.Explain, q.Analyze
	case *sql.SetOpStmt:
		return q.Explain, q.Analyze
	}
	return false, false
}

// query is the one-shot run every Query entry point ends in: resolve the
// stream, open it, pull until λ_k's quota (or the input) ends it, shape
// the rows, release. EXPLAIN [ANALYZE] rides the same path: Normalize
// ignores the flags, so an analyze run shares (and warms) the plan-cache
// entry of the underlying SELECT.
func (db *DB) query(st sql.Stmt, norm string, params []types.Value, cancel <-chan struct{}, pr *Stmt) (*Rows, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, hit, err := db.streamFor(st, norm, params, pr)
	if err != nil {
		return nil, err
	}
	explain, analyze := explainFlags(st)
	if explain && !analyze {
		rows := planTextRows(s.planText())
		rows.CacheHit = hit
		s.release()
		return rows, nil
	}
	err = s.open(params, analyze || db.shouldProfile(s.cp), false)
	var tuples []*schema.Tuple
	if err == nil {
		tuples, err = s.pull(0, cancel)
	}
	if err != nil {
		s.release()
		return nil, err
	}
	rows := s.rows(tuples)
	rows.CacheHit = hit
	// A result shorter than k means the operators ran dry (no more
	// matching tuples exist); exactly k rows means deeper rows may exist.
	rows.K = s.k()
	rows.Exhausted = rows.K == 0 || len(rows.data) < rows.K
	s.release()
	if analyze {
		rows = analyzeRows(rows)
	}
	return rows, nil
}

// resolvePlan finds or compiles the plan for a SELECT template with bound
// values: on a hit the parse/bind/optimize pipeline is skipped. k is
// resolved first because it is part of the plan identity — the rank-aware
// optimizer's plan choice depends on the top-k depth. Parameterized
// templates share the DB-wide LRU; literal-only statements are cached on
// their Stmt (pr; nil for ad-hoc queries, which then skip
// caching so one-off literal SQL cannot evict hot templates). Callers hold
// db.mu (read side).
func (db *DB) resolvePlan(sel *sql.SelectStmt, norm string, params []types.Value, pr *Stmt) (cp *compiledPlan, hit bool, err error) {
	// The placeholder count is cached on the prepared statement; walking
	// the expression trees on every execution would tax the hot path.
	var want int
	if pr != nil {
		want = pr.numParams
	} else {
		want = sql.CountParams(sel)
	}
	if want != len(params) {
		return nil, false, fmt.Errorf("engine: statement has %d parameter(s), %d value(s) bound", want, len(params))
	}
	k := sel.Limit
	if sel.LimitParam > 0 {
		if k, err = sql.LimitValue(params, sel.LimitParam); err != nil {
			return nil, false, err
		}
	}

	parameterized := want > 0
	key := planKey{norm: norm, k: k, version: db.version}
	// A plan is stale once a table it was costed on has more than doubled
	// since its snapshot was drawn: its cardinality estimates (and possibly
	// its operator choices) no longer reflect the data, so it is dropped
	// and the compile below, on a redrawn snapshot, stores its replacement.
	switch {
	case parameterized:
		cp, hit = db.plans.Get(key, planFresh)
	case pr != nil:
		pr.localMu.Lock()
		if pr.localVersion == db.version && pr.localPlan != nil && planFresh(pr.localPlan) {
			cp, hit = pr.localPlan, true
		}
		pr.localMu.Unlock()
	}
	if hit {
		return cp, true, nil
	}

	bound, err := sql.BindParams(sel, params)
	if err != nil {
		return nil, false, err
	}
	if cp, err = db.compileSelect(bound.(*sql.SelectStmt)); err != nil {
		return nil, false, err
	}
	switch {
	case parameterized:
		db.plans.Put(key, cp)
	case pr != nil:
		pr.localMu.Lock()
		pr.localPlan, pr.localVersion = cp, db.version
		pr.localMu.Unlock()
	}
	return cp, false, nil
}

// shouldProfile decides whether this execution of a compiled plan should
// carry operator timing: every profileEvery-th run, starting with the
// first. Set-operation streams have no plan and are never sampled.
func (db *DB) shouldProfile(cp *compiledPlan) bool {
	every := db.profileEvery
	if cp == nil || every <= 0 {
		return false
	}
	return (cp.execs.Add(1)-1)%uint64(every) == 0
}

// planTextRows shapes a plan rendering as an EXPLAIN result: one
// "QUERY PLAN" column, one row per line.
func planTextRows(text string) *Rows {
	rows := &Rows{Columns: []string{"QUERY PLAN"}, Exhausted: true}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rows.data = append(rows.data, []types.Value{types.NewString(line)})
	}
	return rows
}

// analyzeRows reshapes an executed (and profiled) result into EXPLAIN
// ANALYZE output: the rendered operator tree with per-operator rows,
// depth-k, wall time and call counts, while keeping the structured
// snapshot, counters and cache provenance of the real execution.
func analyzeRows(rows *Rows) *Rows {
	out := planTextRows(rows.ExecTree())
	out.CacheHit = rows.CacheHit
	out.K = rows.K
	out.Stats = rows.Stats
	out.tree = rows.tree
	out.Profiled = rows.Profiled
	out.est = rows.est
	return out
}

// planFresh reports whether a cached plan's cost assumptions still hold:
// every table snapshot it was costed on is still current (no table has
// outgrown its snapshot, catalog.Snapshot.Current). It takes no lock of
// its own; callers hold db.mu (read side).
func planFresh(cp *compiledPlan) bool {
	for _, s := range cp.Snapshots {
		if !s.Current() {
			return false
		}
	}
	return true
}

// compileSelect binds and optimizes a SELECT (whose parameters are already
// bound) into a reusable compiledPlan. Resolving the projection takes a
// built operator tree; that tree is pooled as the plan's first instance,
// so the execution that triggered the compile runs it instead of building
// a second one. Callers hold db.mu.
func (db *DB) compileSelect(sel *sql.SelectStmt) (*compiledPlan, error) {
	q, spec, err := db.bind(sel)
	if err != nil {
		return nil, err
	}
	res, err := optimizer.Optimize(q, db.options)
	if err != nil {
		return nil, err
	}
	op, err := res.Plan.Build(res.Env)
	if err != nil {
		return nil, err
	}
	cp := &compiledPlan{
		Plan:      res.Plan,
		Env:       res.Env,
		Spec:      spec,
		HasParams: res.Plan.HasParams(),
		Snapshots: res.Snapshots,
	}
	if len(sel.Projection) > 0 {
		cp.Proj = make([]int, len(sel.Projection))
		for i, c := range sel.Projection {
			j := op.Schema().ColumnIndex(c.Table, c.Name)
			if j == -1 {
				return nil, fmt.Errorf("engine: projected column %s not found", c)
			}
			if j == -2 {
				return nil, fmt.Errorf("engine: projected column %s is ambiguous", c)
			}
			cp.Proj[i] = j
		}
	}
	first, err := cp.newInstance(op)
	if err != nil {
		return nil, err
	}
	return cp, first.release()
}
