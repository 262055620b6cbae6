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
// The package ties the pieces together — catalog, SQL front end, scorer
// registry, rank-aware optimizer and executor — behind one DB. The ranksqld
// daemon (cmd/ranksqld, internal/server) exposes this API as a concurrent
// HTTP/JSON query service.
package ranksql

import (
	"fmt"
	"strconv"
	"sync"
	"unsafe"

	"ranksql/internal/exec"
	"ranksql/internal/jsonenc"
	"ranksql/internal/optimizer"
	"ranksql/internal/rank"
	"ranksql/internal/types"
)

// Value is a scalar query value: NULL, BOOL, INT, FLOAT or TEXT. It is not
// comparable with ==: compare Values through their accessors.
type Value struct {
	v types.Value
}

// Value is a single-field struct over types.Value, so the two share size
// and alignment and a []types.Value can be read as a []Value in place
// (valuesOf); both are 24 bytes (the compact layout of types.Value).
// These lines stop compiling if that ever changes.
var (
	_ [0]struct{} = [unsafe.Sizeof(Value{}) - unsafe.Sizeof(types.Value{})]struct{}{}
	_ [0]struct{} = [unsafe.Alignof(Value{}) - unsafe.Alignof(types.Value{})]struct{}{}
	_ [0]struct{} = [unsafe.Sizeof(types.Value{}) - 24]struct{}{}
)

// valuesOf views vals as a []Value without copying.
func valuesOf(vals []types.Value) []Value {
	return unsafe.Slice((*Value)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals))
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
// is better. Functions must be deterministic. args is valid only during
// the call: the engine reuses its storage for the next evaluation, so a
// ScoreFunc must not retain it (copy what it needs to keep).
type ScoreFunc func(args []Value) float64

// scorer is a registered ranking function: the user-defined predicates of
// the paper (cheap(h.price), close(h.addr, r.addr), ...).
type scorer struct {
	// fn computes the score from the argument values, in [0, maxVal].
	fn rank.ScoreFn
	// cost is the per-evaluation cost in abstract units; it drives the
	// optimizer's scheduling and the executor's cost accounting.
	cost float64
	// maxVal is the maximal possible score (1 when zero).
	maxVal float64
}

// ScorerOption configures a registered scorer.
type ScorerOption func(*scorer)

// WithCost declares the scorer's per-evaluation cost in abstract units;
// the optimizer schedules expensive predicates later, and
// Stats.PredCostUnits sums it over evaluations. Default 1.
func WithCost(c float64) ScorerOption {
	return func(s *scorer) { s.cost = c }
}

// WithMax declares the scorer's maximal possible value, used for
// upper-bound (maximal-possible-score) computation. Default 1.
func WithMax(m float64) ScorerOption {
	return func(s *scorer) { s.maxVal = m }
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

// Rows is a materialized query result.
type Rows struct {
	// Columns are the qualified output column names.
	Columns []string
	// data[i] is one output row.
	data [][]types.Value
	// Scores[i] is row i's score under the query's ranking function (0
	// for Boolean-only queries).
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

	// tree is the executed-tree snapshot: per-operator labels, rows
	// emitted and depth of enumeration, plus wall time and call counts
	// when Profiled. Nil for a plan-only EXPLAIN.
	tree exec.TreeSnapshot
	// est holds the plan's estimated output cardinality per tree node
	// (optimizer.Estimates), on profiled executions whose tree pairs with
	// its plan; est-vs-actual drift is tree[i].Out against est[i].
	est []float64
	pos int
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
// counts (EXPLAIN ANALYZE style); "" for a plan-only EXPLAIN. The
// rendering is computed on demand, so hot paths that never ask for it pay
// nothing.
func (r *Rows) ExecTree() string { return r.tree.String() }

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.data) }

// Next advances the cursor; use Row to read the current row.
func (r *Rows) Next() bool {
	if r.pos >= len(r.data) {
		return false
	}
	r.pos++
	return true
}

// Row returns the current row after Next.
func (r *Rows) Row() []Value {
	raw := r.data[r.pos-1]
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
	raw := r.data[i]
	out := make([]Value, len(raw))
	for j, v := range raw {
		out[j] = Value{v: v}
	}
	return out
}

// ValueAt returns the value at row i, column j without materializing a
// row slice — the allocation-free counterpart of At(i)[j].
func (r *Rows) ValueAt(i, j int) Value { return Value{v: r.data[i][j]} }

// RowWidth returns the number of columns in row i.
func (r *Rows) RowWidth(i int) int { return len(r.data[i]) }

// Result reports the effect of a DDL/DML statement.
type Result struct {
	// RowsAffected counts inserted rows.
	RowsAffected int
	// Message describes DDL effects.
	Message string
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
	// MinSampleRows floors the per-table sample size. A change to either
	// redraws each table's sample at its next compile.
	MinSampleRows int
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

// CacheStats is a snapshot of the plan cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	// StaleRecompiles counts cache hits discarded because a referenced
	// table more than doubled since the optimizer sampled it for the plan,
	// forcing a recompile on a fresh sample.
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

// paramPool recycles bind-argument slices across Query/Exec/Cursor calls.
// Binding copies parameter values out of the slice and never retains it,
// so the slice can be returned to the pool as soon as the call completes.
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
