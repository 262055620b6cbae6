package ranksql

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"ranksql/internal/catalog"
	"ranksql/internal/expr"
	"ranksql/internal/lru"
	"ranksql/internal/optimizer"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/sql"
	"ranksql/internal/types"
)

// DB is an embedded RankSQL database, safe for concurrent use: queries
// proceed in parallel under a read lock against immutable snapshots of
// plans and table data, DDL/DML statements are serialized against them
// under the write lock. Configuration calls (RegisterScorer, SetTuning)
// are intended for setup time.
type DB struct {
	// mu serializes DDL/DML (write side) against read-only query
	// execution (read side).
	mu      sync.RWMutex
	catalog *catalog.Catalog
	scorers map[string]scorer
	// options configure the optimizer (SetTuning).
	options optimizer.Options
	// plans caches compiled query plans keyed on (normalized template,
	// k, schema version); repeated query templates skip parse+optimize.
	plans *planCache
	// profileEvery samples per-operator runtime profiling: every N-th
	// execution of a cached plan runs with operator timing enabled,
	// feeding the per-template operator profiles without taxing the other
	// N-1 executions. 0 disables sampling (EXPLAIN ANALYZE still
	// profiles).
	profileEvery int
	// version is the schema version; DDL bumps it, invalidating every
	// cached plan key minted under the old version.
	version uint64
}

// defaultProfileEvery is the default operator-profiling sampling rate:
// one in every 16 executions of a plan carries timing instrumentation.
const defaultProfileEvery = 16

// Open creates an empty in-memory database.
func Open() *DB {
	return &DB{
		catalog:      catalog.New(),
		scorers:      map[string]scorer{},
		options:      optimizer.DefaultOptions(),
		plans:        lru.New[planKey, *compiledPlan](defaultPlanCacheCapacity),
		profileEvery: defaultProfileEvery,
	}
}

// SetProfileSampling configures sampled operator profiling: every N-th
// execution of a query template runs with per-operator timing and feeds
// the template's operator profile (Rows.Profiled reports which). 0
// disables sampling; EXPLAIN ANALYZE always profiles. Default 16.
func (db *DB) SetProfileSampling(every int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.profileEvery = every
}

// SetTuning reconfigures the optimizer and invalidates cached plans (they
// were costed under the old options).
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
	db.mu.Lock()
	defer db.mu.Unlock()
	db.options = opts
	db.bumpVersionLocked()
	return nil
}

// bumpVersionLocked advances the schema version and eagerly drops every
// cached plan: keys minted under the old version can never hit again, so
// leaving them to age out of the LRU would only hold dead memory.
// Callers hold db.mu (write side).
func (db *DB) bumpVersionLocked() {
	db.version++
	db.plans.Clear()
}

// PlanCacheStats snapshots the DB's plan-cache counters.
func (db *DB) PlanCacheStats() CacheStats {
	s := db.plans.Stats()
	return CacheStats{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		StaleRecompiles: s.Stale,
		Entries:         s.Entries, Capacity: s.Capacity,
	}
}

// SetPlanCacheCapacity resizes the plan cache; 0 disables caching.
func (db *DB) SetPlanCacheCapacity(n int) { db.plans.Resize(n) }

// Tables lists the database's table names.
func (db *DB) Tables() []string {
	return db.catalog.TableNames()
}

// RegisterScorer makes a ranking function available to ORDER BY clauses
// and CREATE RANK INDEX statements.
func (db *DB) RegisterScorer(name string, fn ScoreFunc, opts ...ScorerOption) error {
	if fn == nil {
		return fmt.Errorf("ranksql: scorer %q has no function", name)
	}
	s := scorer{
		fn:     func(args []types.Value) float64 { return fn(valuesOf(args)) },
		cost:   1,
		maxVal: 1,
	}
	for _, o := range opts {
		o(&s)
	}
	if s.maxVal == 0 {
		s.maxVal = 1
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if key == "" {
		return fmt.Errorf("engine: scorer name must not be empty")
	}
	if _, dup := db.scorers[key]; dup {
		return fmt.Errorf("engine: scorer %q already registered", name)
	}
	db.scorers[key] = s
	return nil
}

// lookupScorer finds a registered scorer. The map read is unsynchronized
// by design: callers already hold db.mu (either side), and RegisterScorer
// writes under the write lock; taking db.mu here would self-deadlock on
// the non-reentrant RWMutex.
func (db *DB) lookupScorer(name string) (scorer, bool) {
	s, ok := db.scorers[strings.ToLower(name)]
	return s, ok
}

// Exec runs a DDL or DML statement (CREATE TABLE, CREATE INDEX, CREATE
// RANK INDEX, INSERT, DROP TABLE).
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
		if _, err := db.catalog.CreateTable(s.Name, schema.NewSchema(cols...)); err != nil {
			return nil, err
		}
		db.bumpVersionLocked()
		return &Result{Message: "CREATE TABLE"}, nil
	case *sql.CreateIndexStmt:
		tm, err := db.catalog.Table(s.Table)
		if err != nil {
			return nil, err
		}
		if _, err := tm.CreateIndex(s.Column); err != nil {
			return nil, err
		}
		db.bumpVersionLocked()
		return &Result{Message: "CREATE INDEX"}, nil
	case *sql.CreateRankIndexStmt:
		tm, err := db.catalog.Table(s.Table)
		if err != nil {
			return nil, err
		}
		sc, ok := db.lookupScorer(s.Scorer)
		if !ok {
			return nil, fmt.Errorf("engine: scorer %q is not registered", s.Scorer)
		}
		if _, err := tm.CreateRankIndex(s.Scorer, s.Columns, sc.fn); err != nil {
			return nil, err
		}
		db.bumpVersionLocked()
		return &Result{Message: "CREATE RANK INDEX"}, nil
	case *sql.InsertStmt:
		tm, err := db.catalog.Table(s.Table)
		if err != nil {
			return nil, err
		}
		n, err := db.appendRowsLocked(tm, s.Rows)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n}, nil
	case *sql.DropTableStmt:
		if err := db.catalog.DropTable(s.Name); err != nil {
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

// appendRowsLocked appends all of rows or none: every row is checked (and
// widened) against the schema before the first is appended, so an
// invalid row fails the whole statement and leaves the table as it was.
// Appended rows are indexed like the rest. The optimizer's snapshot of
// the table notices growth itself (catalog.Snapshot.Current). Callers
// hold db.mu (write).
func (db *DB) appendRowsLocked(tm *catalog.TableMeta, rows [][]types.Value) (int, error) {
	for _, row := range rows {
		if err := tm.Table.Check(row); err != nil {
			return 0, err
		}
	}
	for _, row := range rows {
		if _, err := tm.Append(row); err != nil {
			panic(err) // every row was checked above
		}
	}
	return len(rows), nil
}

// Query runs a SELECT or set-operation statement and returns the
// materialized result. Ranking queries (ORDER BY scoring function, LIMIT
// k) are optimized with the rank-aware optimizer and executed
// incrementally. Ad-hoc queries never consult the shared plan cache (no
// parameters can be bound through this path).
func (db *DB) Query(src string) (*Rows, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return db.query(st, "", nil, nil, nil)
}

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

// QueryScores is a convenience wrapper returning only the result scores.
func (db *DB) QueryScores(sql string) ([]float64, error) {
	rows, err := db.Query(sql)
	if err != nil {
		return nil, err
	}
	return rows.Scores, nil
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

// Explain returns the optimized physical plan for a query without
// executing it, annotated with estimated cardinalities and costs.
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
	cp, _, err := db.resolvePlan(st, "", nil, nil)
	if err != nil {
		return "", err
	}
	return cp.Plan.String(), nil
}

// bind turns a parsed SELECT into an optimizer query plus its spec.
func (db *DB) bind(sel *sql.SelectStmt) (*optimizer.Query, *rank.Spec, error) {
	if len(sel.Tables) == 0 {
		return nil, nil, fmt.Errorf("engine: SELECT requires a FROM clause")
	}
	q := &optimizer.Query{
		Catalog: db.catalog,
		Where:   sel.Where,
		K:       sel.Limit,
	}
	for _, tr := range sel.Tables {
		if _, err := db.catalog.Table(tr.Name); err != nil {
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
			sc, ok := db.lookupScorer(term.Scorer)
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
				Fn:     sc.fn,
				Cost:   sc.cost,
				MaxVal: sc.maxVal,
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
		tm, err := db.catalog.Table(tr.Name)
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
