// Package ranksql is an embedded, in-memory relational engine with
// first-class support for ranking (top-k) queries, implementing the
// RankSQL system of Li, Chang, Ilyas and Song (SIGMOD 2005):
//
//   - a rank-relational algebra in which order is a logical property of
//     relations alongside membership, with a rank operator µ that
//     evaluates ranking predicates one at a time,
//   - a pipelined, incremental execution model whose cost is proportional
//     to k (rank-scans, rank joins HRJN/NRJN, rank-aware set operations),
//   - a System-R style optimizer that enumerates plans along two
//     dimensions — join order and evaluated ranking predicates — costed
//     with sampling-based cardinality estimation.
//
// Quick start:
//
//	db := ranksql.Open()
//	db.Exec(`CREATE TABLE hotel (name TEXT, price FLOAT)`)
//	db.Exec(`INSERT INTO hotel VALUES ('Grand', 120), ('Budget', 40)`)
//	db.RegisterScorer("cheap", func(args []ranksql.Value) float64 {
//		return (200 - args[0].Float()) / 200
//	}, ranksql.WithCost(1))
//	rows, _ := db.Query(`SELECT name FROM hotel ORDER BY cheap(price) LIMIT 1`)
//
// Ranking queries use ORDER BY <scoring function> LIMIT k where the
// scoring function is a sum of (optionally weighted) registered scorer
// calls; larger scores rank first. Arbitrary arithmetic ORDER BY
// expressions are supported as opaque ranking predicates.
//
// A DB is safe for concurrent use: queries run in parallel under a read
// lock while DDL/DML statements serialize under a write lock. Repeated
// query templates are served by an LRU plan cache keyed on (normalized
// SQL, evaluated ranking predicates, k), so only the first execution of a
// template pays for parsing and rank-aware optimization. Statements may
// contain `?` placeholders (in WHERE, LIMIT and INSERT values) bound at
// execution time:
//
//	stmt, _ := db.Prepare(`SELECT name FROM hotel WHERE price < ? ORDER BY cheap(price) LIMIT ?`)
//	rows, _ := stmt.Query(150, 5)
//
// The ranksqld daemon (cmd/ranksqld, internal/server) exposes this API as
// a concurrent HTTP/JSON query service.
package ranksql

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"ranksql/internal/engine"
	"ranksql/internal/exec"
	"ranksql/internal/jsonenc"
	"ranksql/internal/optimizer"
	"ranksql/internal/types"
)

// Value is a scalar query value: NULL, BOOL, INT, FLOAT or TEXT.
type Value struct {
	v types.Value
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.v.IsNull() }

// Bool returns the boolean payload (false for non-bools).
func (v Value) Bool() bool { return v.v.Kind() == types.KindBool && v.v.Bool() }

// Int returns the value as an int64 (0 when not numeric).
func (v Value) Int() int64 { i, _ := v.v.AsInt(); return i }

// Float returns the value as a float64 (0 when not numeric).
func (v Value) Float() float64 { f, _ := v.v.AsFloat(); return f }

// String renders the value.
func (v Value) String() string { return v.v.String() }

// Text returns the string payload ("" for non-strings).
func (v Value) Text() string {
	if v.v.Kind() == types.KindString {
		return v.v.Str()
	}
	return ""
}

// Any converts to a native Go value: nil, bool, int64, float64 or string.
func (v Value) Any() interface{} {
	switch v.v.Kind() {
	case types.KindBool:
		return v.v.Bool()
	case types.KindInt:
		return v.v.Int()
	case types.KindFloat:
		return v.v.Float()
	case types.KindString:
		return v.v.Str()
	default:
		return nil
	}
}

// AppendJSON appends the value's JSON encoding to dst and returns the
// extended slice, byte-identical to json.Marshal(v.Any()). It allocates
// only when dst must grow, making it suitable for pooled encode buffers.
func (v Value) AppendJSON(dst []byte) []byte {
	switch v.v.Kind() {
	case types.KindBool:
		if v.v.Bool() {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case types.KindInt:
		return strconv.AppendInt(dst, v.v.Int(), 10)
	case types.KindFloat:
		return jsonenc.AppendFloat(dst, v.v.Float())
	case types.KindString:
		return jsonenc.AppendString(dst, v.v.Str())
	default:
		return append(dst, "null"...)
	}
}

// ScoreFunc is a user-defined ranking predicate: it maps argument values
// to a score, conventionally in [0, 1] (configurable via WithMax). Larger
// is better. Functions must be deterministic.
type ScoreFunc func(args []Value) float64

// ScorerOption configures a registered scorer.
type ScorerOption func(*engine.Scorer)

// WithCost declares the scorer's per-evaluation cost in abstract units;
// the optimizer schedules expensive predicates later, and
// Stats.PredCostUnits sums it over evaluations. Default 1.
func WithCost(c float64) ScorerOption {
	return func(s *engine.Scorer) { s.Cost = c }
}

// WithMax declares the scorer's maximal possible value, used for
// upper-bound (maximal-possible-score) computation. Default 1.
func WithMax(m float64) ScorerOption {
	return func(s *engine.Scorer) { s.MaxVal = m }
}

// Stats are execution counters for one query.
type Stats struct {
	TuplesScanned int64
	PredEvals     int64
	PredCostUnits float64
	Comparisons   int64
	JoinProbes    int64
	PeakBuffered  int64
	// Materialized counts every tuple admitted into an operator buffer
	// (ranking queues, hash tables, sort materializations) over the whole
	// execution — the cumulative materialization footprint. Unlike
	// PeakBuffered it never shrinks as buffers drain.
	Materialized int64
}

// Rows is a materialized query result.
type Rows struct {
	// Columns are the qualified output column names.
	Columns []string
	rows    [][]types.Value
	// Scores[i] is row i's score under the query's ranking function.
	Scores []float64
	// Stats are the query's execution counters.
	Stats Stats
	// CacheHit reports whether the query reused a cached compiled plan,
	// skipping parse/bind/optimize.
	CacheHit bool
	// K is the effective top-k bound the query ran under (0 = no LIMIT).
	K int
	// Exhausted reports whether the ranked stream ran dry at or before
	// depth Len(): no further rows exist beyond the ones returned. When
	// false (the result holds exactly K rows), re-running with a larger
	// LIMIT could surface more rows — the signal a distributed top-k
	// merge uses to bound a shard's remaining contribution. Always true
	// for unlimited queries.
	Exhausted bool
	// Profiled reports whether this execution carried per-operator wall
	// time: always for EXPLAIN ANALYZE, and on a sampled subset of plain
	// executions (see SetProfileSampling). When set, Operators() includes
	// timing and ExecTree() renders it.
	Profiled bool

	execTree func() string
	tree     exec.TreeSnapshot
	est      []float64
	pos      int
}

// OpProfile is one operator of the executed plan: its position in the
// tree, rows emitted, depth of enumeration (tuples consumed from its
// inputs — the quantity rank-aware operators keep small), and, when the
// execution was Profiled, inclusive wall time and call count.
type OpProfile struct {
	// Depth is the operator's nesting depth (0 = root).
	Depth int
	// Name is the operator label, e.g. "rank_cheap(h.price)".
	Name string
	// Rows is the number of tuples the operator emitted.
	Rows int64
	// DepthK is the number of tuples consumed from the operator's inputs
	// (for leaves: pulled from the base table).
	DepthK int64
	// TimeMS is inclusive wall time in milliseconds (self + children);
	// zero unless the execution was Profiled.
	TimeMS float64
	// Calls counts Open/Next invocations; zero unless Profiled.
	Calls int64
	// EstRows is the optimizer's estimated output cardinality for this
	// node, aligned from the compiled plan on profiled executions; -1 when
	// no estimate is available (unprofiled run, EXPLAIN-less statement, or
	// an executed tree whose shape could not be matched to the plan).
	// Rows against EstRows is the node's estimate drift.
	EstRows float64
}

// Operators returns the executed plan's per-operator runtime profile in
// pre-order (parent before children). Timing fields are populated only
// when Profiled; row counts and depth-k are always real.
func (r *Rows) Operators() []OpProfile {
	out := make([]OpProfile, len(r.tree))
	for i, n := range r.tree {
		out[i] = OpProfile{
			Depth:   n.Depth,
			Name:    n.Label,
			Rows:    n.Out,
			DepthK:  n.DepthK,
			TimeMS:  float64(n.TimeNS) / 1e6,
			Calls:   n.Calls,
			EstRows: -1,
		}
		if i < len(r.est) {
			out[i].EstRows = r.est[i]
		}
	}
	return out
}

// ExecTree renders the executed operator tree with per-operator output
// counts (EXPLAIN ANALYZE style). The rendering is computed on demand, so
// hot paths that never ask for it pay nothing.
func (r *Rows) ExecTree() string {
	if r.execTree == nil {
		return ""
	}
	return r.execTree()
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.rows) }

// Next advances the cursor; use Row to read the current row.
func (r *Rows) Next() bool {
	if r.pos >= len(r.rows) {
		return false
	}
	r.pos++
	return true
}

// Row returns the current row after Next.
func (r *Rows) Row() []Value {
	raw := r.rows[r.pos-1]
	out := make([]Value, len(raw))
	for i, v := range raw {
		out[i] = Value{v: v}
	}
	return out
}

// Score returns the current row's ranking score after Next.
func (r *Rows) Score() float64 { return r.Scores[r.pos-1] }

// At returns row i without moving the cursor.
func (r *Rows) At(i int) []Value {
	raw := r.rows[i]
	out := make([]Value, len(raw))
	for j, v := range raw {
		out[j] = Value{v: v}
	}
	return out
}

// ValueAt returns the value at row i, column j without materializing a
// row slice — the allocation-free counterpart of At(i)[j].
func (r *Rows) ValueAt(i, j int) Value { return Value{v: r.rows[i][j]} }

// RowWidth returns the number of columns in row i.
func (r *Rows) RowWidth(i int) int { return len(r.rows[i]) }

// Result reports the effect of a DDL/DML statement.
type Result struct {
	RowsAffected int
	Message      string
}

// DB is an embedded RankSQL database, safe for concurrent use: queries
// proceed in parallel, DDL/DML statements are serialized against them.
// Configuration calls (RegisterScorer, SetTuning) are intended for setup
// time.
type DB struct {
	eng *engine.DB
}

// Open creates an empty in-memory database.
func Open() *DB {
	return &DB{eng: engine.New()}
}

// RegisterScorer makes a ranking function available to ORDER BY clauses
// and CREATE RANK INDEX statements.
func (db *DB) RegisterScorer(name string, fn ScoreFunc, opts ...ScorerOption) error {
	if fn == nil {
		return fmt.Errorf("ranksql: scorer %q has no function", name)
	}
	s := engine.Scorer{
		Fn: func(args []types.Value) float64 {
			wrapped := make([]Value, len(args))
			for i, a := range args {
				wrapped[i] = Value{v: a}
			}
			return fn(wrapped)
		},
		Cost:   1,
		MaxVal: 1,
	}
	for _, o := range opts {
		o(&s)
	}
	return db.eng.RegisterScorer(name, s)
}

// Exec runs a DDL or DML statement (CREATE TABLE, CREATE INDEX, CREATE
// RANK INDEX, INSERT).
func (db *DB) Exec(sql string) (*Result, error) {
	res, err := db.eng.Exec(sql)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: res.RowsAffected, Message: res.Message}, nil
}

// Query runs a SELECT and returns the materialized result. Ranking
// queries (ORDER BY scoring function, LIMIT k) are optimized with the
// rank-aware optimizer and executed incrementally.
func (db *DB) Query(sql string) (*Rows, error) {
	rows, err := db.eng.Query(sql)
	if err != nil {
		return nil, err
	}
	return wrapRows(rows), nil
}

func wrapRows(rows *engine.Rows) *Rows {
	return &Rows{
		Columns:   rows.Columns,
		rows:      rows.Data,
		Scores:    rows.Scores,
		Stats:     convertStats(rows.Stats),
		execTree:  rows.ExecTree,
		tree:      rows.Tree,
		est:       rows.Est,
		Profiled:  rows.Profiled,
		CacheHit:  rows.CacheHit,
		K:         rows.K,
		Exhausted: rows.Exhausted,
	}
}

// QueryScores is a convenience wrapper returning only the result scores.
func (db *DB) QueryScores(sql string) ([]float64, error) {
	rows, err := db.Query(sql)
	if err != nil {
		return nil, err
	}
	return rows.Scores, nil
}

// Explain returns the optimized physical plan for a SELECT, annotated
// with estimated cardinalities and costs.
func (db *DB) Explain(sql string) (string, error) {
	return db.eng.Explain(sql)
}

// ExplainAnalyze executes a SELECT with per-operator timing enabled and
// returns the profiled result: the rows hold the rendered operator tree
// (one "QUERY PLAN" column), and Operators() exposes the structured
// per-operator wall time, rows and depth-k. sql must be a plain SELECT
// or set-operation statement (without an EXPLAIN prefix of its own —
// `Query("EXPLAIN ANALYZE ...")` is the equivalent spelled out).
func (db *DB) ExplainAnalyze(sql string) (*Rows, error) {
	return db.Query("EXPLAIN ANALYZE " + sql)
}

// SetProfileSampling configures sampled operator profiling: every N-th
// execution of a query template runs with per-operator timing and feeds
// the template's operator profile (Rows.Profiled reports which). 0
// disables sampling; EXPLAIN ANALYZE always profiles. Default 16.
func (db *DB) SetProfileSampling(every int) {
	db.eng.SetProfileSampling(every)
}

// Tables lists the database's table names.
func (db *DB) Tables() []string {
	return db.eng.Catalog.TableNames()
}

// Tuning exposes optimizer knobs.
type Tuning struct {
	// LeftDeepOnly restricts join enumeration to left-deep trees.
	LeftDeepOnly bool
	// RankHeuristic enables greedy rank-metric scheduling of µ operators.
	RankHeuristic bool
	// NoRankOperators disables rank-aware operators (traditional
	// optimizer; for comparisons).
	NoRankOperators bool
	// SampleRatio is the sampling fraction for cardinality estimation.
	SampleRatio float64
	// MinSampleRows floors the per-table sample size.
	MinSampleRows int
}

// SetTuning reconfigures the optimizer.
func (db *DB) SetTuning(t Tuning) error {
	if t.SampleRatio < 0 || t.SampleRatio > 1 {
		return fmt.Errorf("ranksql: sample ratio must be in [0, 1]")
	}
	opts := optimizer.DefaultOptions()
	opts.LeftDeepOnly = t.LeftDeepOnly
	opts.RankHeuristic = t.RankHeuristic
	opts.NoRankOperators = t.NoRankOperators
	if t.SampleRatio > 0 {
		opts.SampleRatio = t.SampleRatio
	}
	if t.MinSampleRows > 0 {
		opts.MinSampleRows = t.MinSampleRows
	}
	db.eng.SetOptions(opts)
	return nil
}

// DefaultTuning mirrors the engine defaults (heuristics on, 0.1% samples
// with a 100-row floor).
func DefaultTuning() Tuning {
	o := optimizer.DefaultOptions()
	return Tuning{
		LeftDeepOnly:  o.LeftDeepOnly,
		RankHeuristic: o.RankHeuristic,
		SampleRatio:   o.SampleRatio,
		MinSampleRows: o.MinSampleRows,
	}
}

func convertStats(s exec.Stats) Stats {
	return Stats{
		TuplesScanned: s.TuplesScanned,
		PredEvals:     s.PredEvals,
		PredCostUnits: s.PredCost,
		Comparisons:   s.Comparisons,
		JoinProbes:    s.JoinProbes,
		PeakBuffered:  s.PeakBuffered,
		Materialized:  s.Materialized,
	}
}

// Stmt is a prepared statement: parsed once, executable many times with
// different `?` parameter bindings. A Stmt is immutable and safe for
// concurrent use. Prepared SELECTs share the DB's plan cache, so repeated
// executions (and identical templates prepared elsewhere) skip
// optimization entirely.
type Stmt struct {
	p *engine.Prepared
}

// Prepare parses a statement template containing `?` placeholders.
// Placeholders may appear in WHERE clauses, LIMIT bounds and INSERT
// values; they are bound positionally by Query/Exec arguments.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	p, err := db.eng.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{p: p}, nil
}

// NumParams returns the number of `?` placeholders in the statement.
func (s *Stmt) NumParams() int { return s.p.NumParams() }

// Normalized returns the canonical template text — the statement
// component of the plan-cache key.
func (s *Stmt) Normalized() string { return s.p.Normalized() }

// SQL returns the original statement text.
func (s *Stmt) SQL() string { return s.p.SQL() }

// IsQuery reports whether the statement returns rows.
func (s *Stmt) IsQuery() bool { return s.p.IsQuery() }

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
	rows, err := s.p.QueryCancel(params, ctx.Done())
	if err != nil {
		if errors.Is(err, exec.ErrInterrupted) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return wrapRows(rows), nil
}

// Exec executes a prepared DDL/DML statement with the given parameters.
func (s *Stmt) Exec(args ...interface{}) (*Result, error) {
	params, release, err := getParams(args)
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := s.p.Exec(params)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: res.RowsAffected, Message: res.Message}, nil
}

// ErrCursorInvalidated is returned by Cursor.Fetch when DDL changed the
// schema after the cursor was opened; the cursor is closed and must be
// re-opened.
var ErrCursorInvalidated = engine.ErrCursorInvalidated

// ErrCursorClosed is returned by Cursor.Fetch after Close.
var ErrCursorClosed = engine.ErrCursorClosed

// Cursor is a resumable ranked stream over a SELECT or set-operation
// statement: the operator tree is opened once and suspended between
// pulls, so fetching page N costs only the incremental work past page
// N-1 — no re-planning, no re-execution of earlier pages. Pages come
// back in the query's score order; a LIMIT k in the statement tunes the
// plan for depth k but does not cap the stream.
//
// The stream is a consistent snapshot of the data as of open (inserts
// landing between pulls are not seen); DDL invalidates the cursor.
type Cursor struct {
	c *engine.Cursor
}

// Cursor opens a resumable ranked cursor over a SELECT or set-operation
// statement. Repeated SELECT templates share the plan cache with Query.
func (db *DB) Cursor(sql string) (*Cursor, error) {
	c, err := db.eng.QueryCursor(sql)
	if err != nil {
		return nil, err
	}
	return &Cursor{c: c}, nil
}

// Cursor opens a resumable ranked cursor over the prepared query with
// the given parameter values.
func (s *Stmt) Cursor(args ...interface{}) (*Cursor, error) {
	params, err := toValues(args)
	if err != nil {
		return nil, err
	}
	c, err := s.p.Cursor(params)
	if err != nil {
		return nil, err
	}
	return &Cursor{c: c}, nil
}

// Fetch pulls the next n rows from the suspended stream. The page's
// Exhausted reports whether the stream ran dry; Stats are cumulative
// across every pull of this cursor.
func (c *Cursor) Fetch(n int) (*Rows, error) {
	rows, err := c.c.Fetch(n)
	if err != nil {
		return nil, err
	}
	return wrapRows(rows), nil
}

// FetchContext is Fetch with cancellation: when ctx is done, the pull is
// interrupted at the next cancellation point (the cursor stays usable).
func (c *Cursor) FetchContext(ctx context.Context, n int) (*Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, err := c.c.FetchCancel(n, ctx.Done())
	if err != nil {
		if errors.Is(err, exec.ErrInterrupted) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return wrapRows(rows), nil
}

// Close releases the cursor's suspended operator tree. Idempotent.
func (c *Cursor) Close() error { return c.c.Close() }

// Pulled returns the total number of rows fetched so far (the 0-based
// rank of the next row).
func (c *Cursor) Pulled() int { return c.c.Pulled() }

// Exhausted reports whether the stream has run dry.
func (c *Cursor) Exhausted() bool { return c.c.Exhausted() }

// Columns returns the qualified output column names.
func (c *Cursor) Columns() []string { return c.c.Columns() }

// CacheHit reports whether opening the cursor reused a cached plan.
func (c *Cursor) CacheHit() bool { return c.c.CacheHit() }

// K returns the statement's LIMIT — the depth hint the plan was tuned
// for (0 when the statement had none). The stream itself is not capped.
func (c *Cursor) K() int { return c.c.K() }

// PinnedBytes estimates the memory pinned by the cursor's suspended
// operator state (tuples resident in ranking queues, hash tables and
// materializations, plus tuples parked by an interrupted pull). Zero
// once the cursor is closed. The figure backs the server's
// cursor_pinned_bytes gauge.
func (c *Cursor) PinnedBytes() int64 { return c.c.PinnedBytes() }

// QueryContext runs a (possibly parameterized) SELECT with cancellation.
// It is one-shot sugar for Prepare + Stmt.QueryContext; repeated templates
// still hit the plan cache.
func (db *DB) QueryContext(ctx context.Context, sql string, args ...interface{}) (*Rows, error) {
	stmt, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return stmt.QueryContext(ctx, args...)
}

// ExecContext runs a (possibly parameterized) DDL/DML statement. The
// context is checked before execution begins; DDL/DML itself is not
// interruptible.
func (db *DB) ExecContext(ctx context.Context, sql string, args ...interface{}) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stmt, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return stmt.Exec(args...)
}

// CacheStats is a snapshot of the plan cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	// StaleRecompiles counts cache hits discarded because a referenced
	// table outgrew the plan's planning-time row count (see
	// SetPlanStalenessFactor), forcing a recompile.
	StaleRecompiles   uint64
	Entries, Capacity int
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PlanCacheStats snapshots the DB's plan-cache counters.
func (db *DB) PlanCacheStats() CacheStats {
	s := db.eng.Plans.Stats()
	return CacheStats{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		StaleRecompiles: s.Stale,
		Entries:         s.Entries, Capacity: s.Capacity,
	}
}

// SetPlanCacheCapacity resizes the plan cache; 0 disables caching.
func (db *DB) SetPlanCacheCapacity(n int) { db.eng.Plans.Resize(n) }

// SetPlanStalenessFactor sets the row-count growth ratio past which a
// cached plan is recompiled: a plan compiled against a table of R rows is
// discarded (and transparently re-optimized) once the table exceeds
// factor*R rows, so cost estimates track data growth without DDL. Values
// <= 1 disable the check. The default is 2.
func (db *DB) SetPlanStalenessFactor(factor float64) {
	db.eng.SetStaleFactor(factor)
}

// paramPool recycles bind-argument slices across Query/Exec calls. The
// engine copies parameter values out of the slice during binding and
// never retains it, so the slice can be returned to the pool as soon as
// the call completes.
var paramPool = sync.Pool{
	New: func() interface{} {
		s := make([]types.Value, 0, 8)
		return &s
	},
}

// getParams converts native Go arguments to engine values in a pooled
// slice. The returned release func must be called once the engine call
// has completed (it is a no-op when args is empty).
func getParams(args []interface{}) ([]types.Value, func(), error) {
	if len(args) == 0 {
		return nil, func() {}, nil
	}
	p := paramPool.Get().(*[]types.Value)
	out, err := appendValues((*p)[:0], args)
	if err != nil {
		paramPool.Put(p)
		return nil, nil, err
	}
	*p = out
	return out, func() {
		*p = (*p)[:0]
		paramPool.Put(p)
	}, nil
}

// toValues converts native Go arguments to engine values.
func toValues(args []interface{}) ([]types.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	return appendValues(make([]types.Value, 0, len(args)), args)
}

// appendValues appends the converted arguments to dst.
func appendValues(dst []types.Value, args []interface{}) ([]types.Value, error) {
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			dst = append(dst, types.Null())
		case bool:
			dst = append(dst, types.NewBool(v))
		case int:
			dst = append(dst, types.NewInt(int64(v)))
		case int32:
			dst = append(dst, types.NewInt(int64(v)))
		case int64:
			dst = append(dst, types.NewInt(v))
		case float32:
			dst = append(dst, types.NewFloat(float64(v)))
		case float64:
			dst = append(dst, types.NewFloat(v))
		case string:
			dst = append(dst, types.NewString(v))
		case Value:
			dst = append(dst, v.v)
		default:
			return nil, fmt.Errorf("ranksql: unsupported parameter type %T at position %d", a, i)
		}
	}
	return dst, nil
}
