// Package engine ties the pieces together: catalog, SQL front end, scorer
// registry, rank-aware optimizer, and executor. It is what the public
// ranksql package wraps.
package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"ranksql/internal/catalog"
	"ranksql/internal/exec"
	"ranksql/internal/expr"
	"ranksql/internal/lru"
	"ranksql/internal/optimizer"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/sql"
	"ranksql/internal/types"
)

// Scorer is a registered ranking function: the user-defined predicates of
// the paper (cheap(h.price), close(h.addr, r.addr), ...).
type Scorer struct {
	// Fn computes the score from the argument values. Scores should lie
	// in [0, MaxVal].
	Fn rank.ScoreFn
	// Cost is the per-evaluation cost in abstract units; it drives the
	// optimizer's scheduling and the executor's cost accounting.
	Cost float64
	// MaxVal is the maximal possible score (1 when zero).
	MaxVal float64
}

// DB is an in-memory RankSQL database. It is safe for concurrent use:
// DDL/DML statements take a write lock, queries run concurrently under a
// read lock against immutable snapshots of plans and table data.
type DB struct {
	// mu serializes DDL/DML (write side) against read-only query
	// execution (read side).
	mu      sync.RWMutex
	Catalog *catalog.Catalog
	scorers map[string]Scorer
	// Options configure the optimizer; adjust before querying (use
	// SetOptions when queries may be in flight).
	Options optimizer.Options
	// Plans caches compiled SELECT plans keyed on (normalized template,
	// k, schema version); repeated query templates skip parse+optimize.
	Plans *PlanCache
	// ProfileEvery samples per-operator runtime profiling: every N-th
	// execution of a cached plan runs with operator timing enabled,
	// feeding the per-template operator profiles without taxing the other
	// N-1 executions. 0 disables sampling (EXPLAIN ANALYZE still
	// profiles). Default DefaultProfileEvery.
	ProfileEvery int
	// version is the schema version; DDL bumps it, invalidating every
	// cached plan key minted under the old version.
	version uint64
}

// DefaultProfileEvery is the default operator-profiling sampling rate:
// one in every 16 executions of a plan carries timing instrumentation.
const DefaultProfileEvery = 16

// New creates an empty database with default optimizer options.
func New() *DB {
	return &DB{
		Catalog:      catalog.New(),
		scorers:      map[string]Scorer{},
		Options:      optimizer.DefaultOptions(),
		Plans:        lru.New[planKey, *CompiledPlan](DefaultPlanCacheCapacity),
		ProfileEvery: DefaultProfileEvery,
	}
}

// SetProfileSampling reconfigures operator-profiling sampling: every
// N-th execution of a plan is profiled (0 disables sampling).
func (db *DB) SetProfileSampling(every int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.ProfileEvery = every
}

// SetOptions swaps the optimizer configuration and invalidates cached
// plans (they were costed under the old options).
func (db *DB) SetOptions(opts optimizer.Options) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.Options = opts
	db.bumpVersionLocked()
}

// bumpVersionLocked advances the schema version and eagerly drops every
// cached plan: keys minted under the old version can never hit again, so
// leaving them to age out of the LRU would only hold dead memory.
// Callers hold db.mu (write side).
func (db *DB) bumpVersionLocked() {
	db.version++
	db.Plans.Clear()
}

// RegisterScorer registers a ranking function under a name usable in
// ORDER BY clauses and CREATE RANK INDEX statements.
func (db *DB) RegisterScorer(name string, s Scorer) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if key == "" {
		return fmt.Errorf("engine: scorer name must not be empty")
	}
	if _, dup := db.scorers[key]; dup {
		return fmt.Errorf("engine: scorer %q already registered", name)
	}
	if s.Fn == nil {
		return fmt.Errorf("engine: scorer %q has no function", name)
	}
	if s.MaxVal == 0 {
		s.MaxVal = 1
	}
	db.scorers[key] = s
	return nil
}

// Scorer looks up a registered scorer. The map read is unsynchronized by
// design: callers already hold db.mu (either side), and RegisterScorer
// writes under the write lock; taking db.mu here would self-deadlock on
// the non-reentrant RWMutex.
func (db *DB) Scorer(name string) (Scorer, bool) {
	s, ok := db.scorers[strings.ToLower(name)]
	return s, ok
}

// Result reports the effect of a DDL/DML statement.
type Result struct {
	// RowsAffected counts inserted rows.
	RowsAffected int
	// Message describes DDL effects.
	Message string
}

// Rows is a fully materialized query result.
type Rows struct {
	// CacheHit reports whether the query reused a cached compiled plan
	// (skipping parse, bind and optimization).
	CacheHit bool
	// K is the effective top-k bound the query ran under (0 = no LIMIT).
	K int
	// Exhausted reports whether the ranked stream ran dry at or before
	// depth len(Data): a distributed merge can treat this result as the
	// shard's complete answer, while !Exhausted means asking again with a
	// larger k could surface more rows. Always true when K is 0.
	Exhausted bool
	Columns   []string
	// Data[i] is one output row.
	Data [][]types.Value
	// Scores[i] is the row's final score under the query's ranking
	// function (0 for Boolean-only queries).
	Scores []float64
	// Stats are the execution counters.
	Stats exec.Stats
	// Plan is the executed physical plan, annotated with estimates.
	Plan *optimizer.PlanNode
	// ExecTree renders the executed operator tree with per-operator
	// output counts (EXPLAIN ANALYZE style). It is a closure so the
	// (purely diagnostic) rendering is only paid for when requested —
	// the high-QPS server path never asks for it. May be nil.
	ExecTree func() string
	// Tree is the structured executed-tree snapshot behind ExecTree:
	// per-operator labels, rows emitted, and depth of enumeration, plus
	// wall time and call counts when Profiled.
	Tree exec.TreeSnapshot
	// Profiled reports whether this execution carried per-operator
	// timing (EXPLAIN ANALYZE always does; plain executions are sampled
	// every DB.ProfileEvery-th run of a template).
	Profiled bool
	// Est holds the plan's estimated output cardinality per Tree node
	// (parallel to Tree, pre-order), aligned by PlanEstimates on
	// profiled executions. Empty when the execution was not profiled or
	// the shapes could not be aligned; est-vs-actual drift is Tree[i].Out
	// against Est[i].
	Est []float64
}

// Exec runs any statement; for SELECT it returns (nil, *Rows via Query).
func (db *DB) Exec(src string) (*Result, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	if n := sql.CountParams(st); n > 0 {
		return nil, fmt.Errorf("engine: statement has %d unbound parameter(s); use Prepare", n)
	}
	return db.execStmt(st)
}

// execStmt applies a fully bound DDL/DML statement under the write lock.
func (db *DB) execStmt(st sql.Stmt) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	switch s := st.(type) {
	case *sql.CreateTableStmt:
		cols := make([]schema.Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = schema.Column{Name: c.Name, Kind: c.Kind}
		}
		if _, err := db.Catalog.CreateTable(s.Name, schema.NewSchema(cols...)); err != nil {
			return nil, err
		}
		db.bumpVersionLocked()
		return &Result{Message: "CREATE TABLE"}, nil
	case *sql.CreateIndexStmt:
		tm, err := db.Catalog.Table(s.Table)
		if err != nil {
			return nil, err
		}
		if _, err := tm.CreateIndex(s.Column); err != nil {
			return nil, err
		}
		db.bumpVersionLocked()
		return &Result{Message: "CREATE INDEX"}, nil
	case *sql.CreateRankIndexStmt:
		tm, err := db.Catalog.Table(s.Table)
		if err != nil {
			return nil, err
		}
		sc, ok := db.Scorer(s.Scorer)
		if !ok {
			return nil, fmt.Errorf("engine: scorer %q is not registered", s.Scorer)
		}
		if _, err := tm.CreateRankIndex(s.Scorer, s.Columns, sc.Fn); err != nil {
			return nil, err
		}
		db.bumpVersionLocked()
		return &Result{Message: "CREATE RANK INDEX"}, nil
	case *sql.InsertStmt:
		tm, err := db.Catalog.Table(s.Table)
		if err != nil {
			return nil, err
		}
		n, err := db.appendRowsLocked(tm, s.Rows)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n}, nil
	case *sql.DropTableStmt:
		if err := db.Catalog.DropTable(s.Name); err != nil {
			return nil, err
		}
		db.bumpVersionLocked()
		return &Result{Message: "DROP TABLE"}, nil
	case *sql.SelectStmt, *sql.SetOpStmt:
		return nil, fmt.Errorf("engine: use Query for SELECT statements")
	default:
		return nil, fmt.Errorf("engine: unhandled statement %T", st)
	}
}

// BulkInsert appends pre-converted rows to a table under the write lock,
// indexing each row as it is appended. It is the concurrency-safe
// bulk-load path (LoadCSV uses it). When sch is non-nil it must be the
// exact schema the rows were converted against; a mismatch (the table was
// dropped and recreated since) aborts the load rather than appending rows
// converted for a different schema.
func (db *DB) BulkInsert(table string, sch *schema.Schema, rows [][]types.Value) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	tm, err := db.Catalog.Table(table)
	if err != nil {
		return 0, err
	}
	if sch != nil && tm.Table.Schema != sch {
		return 0, fmt.Errorf("engine: table %q was recreated during the bulk load; aborting", table)
	}
	return db.appendRowsLocked(tm, rows)
}

// appendRowsLocked appends rows until the first invalid one; every row
// appended before it stays, indexed like the rest. The optimizer's
// snapshot of the table notices growth itself (catalog.Snapshot.Current).
// Callers hold db.mu (write).
func (db *DB) appendRowsLocked(tm *catalog.TableMeta, rows [][]types.Value) (int, error) {
	n := 0
	var err error
	for _, row := range rows {
		if _, err = tm.Append(row); err != nil {
			break
		}
		n++
	}
	return n, err
}

// Query parses, plans, optimizes and executes a SELECT or set-operation
// statement. Repeated SELECT templates are served from the plan cache.
func (db *DB) Query(src string) (*Rows, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	// Ad-hoc queries never consult the shared plan cache (no parameters
	// can be bound through this path), so the normalized template is not
	// needed.
	return db.query(st, "", nil, nil, nil)
}

// Explain returns the optimized plan for a SELECT without executing it.
func (db *DB) Explain(src string) (string, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return "", err
	}
	if n := sql.CountParams(st); n > 0 {
		return "", fmt.Errorf("engine: cannot EXPLAIN a statement with %d unbound parameter(s)", n)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	switch s := st.(type) {
	case *sql.SelectStmt:
		q, _, err := db.bind(s)
		if err != nil {
			return "", err
		}
		res, err := optimizer.Optimize(q, db.Options)
		if err != nil {
			return "", err
		}
		return res.Plan.String(), nil
	case *sql.SetOpStmt:
		so, err := db.buildSetOp(s)
		if err != nil {
			return "", err
		}
		return so.planText(), nil
	default:
		return "", fmt.Errorf("engine: Explain expects a SELECT statement")
	}
}

// bind turns a parsed SELECT into an optimizer query plus its spec.
func (db *DB) bind(sel *sql.SelectStmt) (*optimizer.Query, *rank.Spec, error) {
	if len(sel.Tables) == 0 {
		return nil, nil, fmt.Errorf("engine: SELECT requires a FROM clause")
	}
	q := &optimizer.Query{
		Catalog: db.Catalog,
		Where:   sel.Where,
		K:       sel.Limit,
	}
	for _, tr := range sel.Tables {
		if _, err := db.Catalog.Table(tr.Name); err != nil {
			return nil, nil, err
		}
		q.Tables = append(q.Tables, optimizer.TableRef{Alias: tr.Alias, Name: tr.Name})
	}
	aliasKnown := map[string]bool{}
	for _, tr := range q.Tables {
		aliasKnown[strings.ToLower(tr.Alias)] = true
	}

	// Build the ranking spec from the ORDER BY terms.
	var preds []*rank.Predicate
	var weights []float64
	for i, term := range sel.Order {
		var p *rank.Predicate
		switch {
		case term.Scorer != "":
			sc, ok := db.Scorer(term.Scorer)
			if !ok {
				return nil, nil, fmt.Errorf("engine: scorer %q is not registered", term.Scorer)
			}
			args := make([]rank.ColumnRef, len(term.Args))
			for j, a := range term.Args {
				table := a.Table
				if table == "" {
					t, err := db.resolveColumnTable(q.Tables, a.Name)
					if err != nil {
						return nil, nil, err
					}
					table = t
				} else if !aliasKnown[strings.ToLower(table)] {
					return nil, nil, fmt.Errorf("engine: ORDER BY references unknown table %q", table)
				}
				args[j] = rank.ColumnRef{Table: table, Column: a.Name}
			}
			p = &rank.Predicate{
				Index:  i,
				Name:   fmt.Sprintf("%s(%s)", term.Scorer, joinArgs(args)),
				Scorer: term.Scorer,
				Args:   args,
				Fn:     sc.Fn,
				Cost:   sc.Cost,
				MaxVal: sc.MaxVal,
			}
		default:
			// Opaque arithmetic term: one predicate whose arguments are
			// the referenced columns and whose function evaluates the
			// expression. Its maximum is unknown, so the upper bound is
			// +Inf — semantically correct, and it steers the optimizer
			// to evaluate it via sorting, never speculatively.
			p2, err := db.opaquePredicate(i, term, q.Tables)
			if err != nil {
				return nil, nil, err
			}
			p = p2
		}
		preds = append(preds, p)
		weights = append(weights, term.Weight)
	}
	var spec *rank.Spec
	if len(preds) == 0 {
		spec = rank.EmptySpec()
	} else {
		uniform := true
		for _, w := range weights {
			if w != 1 {
				uniform = false
			}
		}
		var f rank.ScoringFunc
		if uniform {
			f = rank.NewSum(len(preds))
		} else {
			f = rank.NewWeightedSum(weights)
		}
		s, err := rank.NewSpec(f, preds)
		if err != nil {
			return nil, nil, err
		}
		spec = s
	}
	q.Spec = spec
	return q, spec, nil
}

// resolveColumnTable finds the unique table containing an unqualified
// column.
func (db *DB) resolveColumnTable(tables []optimizer.TableRef, col string) (string, error) {
	found := ""
	for _, tr := range tables {
		tm, err := db.Catalog.Table(tr.Name)
		if err != nil {
			return "", err
		}
		if tm.Table.Schema.ColumnIndex("", col) >= 0 {
			if found != "" {
				return "", fmt.Errorf("engine: column %q is ambiguous", col)
			}
			found = tr.Alias
		}
	}
	if found == "" {
		return "", fmt.Errorf("engine: column %q not found in any FROM table", col)
	}
	return found, nil
}

func joinArgs(args []rank.ColumnRef) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

// opaquePredicate wraps an arbitrary ORDER BY term as a ranking predicate.
func (db *DB) opaquePredicate(index int, term sql.OrderTerm, tables []optimizer.TableRef) (*rank.Predicate, error) {
	cols := expr.Columns(term.Expr)
	if len(cols) == 0 {
		return nil, fmt.Errorf("engine: ORDER BY term %s references no columns", term.Expr)
	}
	args := make([]rank.ColumnRef, len(cols))
	for i, c := range cols {
		table := c.Table
		if table == "" {
			t, err := db.resolveColumnTable(tables, c.Name)
			if err != nil {
				return nil, err
			}
			table = t
		}
		args[i] = rank.ColumnRef{Table: table, Column: c.Name}
	}
	// The function evaluates the expression against a synthetic one-row
	// tuple whose schema is exactly the argument columns.
	argSchema := make([]schema.Column, len(args))
	for i, a := range args {
		argSchema[i] = schema.Column{Table: a.Table, Name: a.Column}
	}
	bound := expr.Clone(term.Expr)
	if err := expr.Bind(bound, schema.NewSchema(argSchema...)); err != nil {
		return nil, err
	}
	fn := func(vals []types.Value) float64 {
		t := &schema.Tuple{Values: vals}
		v, err := bound.Eval(t)
		if err != nil {
			return math.Inf(-1)
		}
		f, _ := v.AsFloat()
		return f
	}
	return &rank.Predicate{
		Index:  index,
		Name:   fmt.Sprintf("expr(%s)", term.Expr),
		Args:   args,
		Fn:     fn,
		Cost:   0.1,
		MaxVal: math.Inf(1),
	}, nil
}
