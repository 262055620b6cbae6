// Package catalog tracks the database's tables, secondary indexes, rank
// indexes (B+trees over ranking-predicate scores, the access path of the
// paper's rank-scan operator), per-table statistics, and the row samples
// the optimizer's cardinality estimator runs subplans against (§5.2).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ranksql/internal/btree"
	"ranksql/internal/schema"
	"ranksql/internal/storage"
	"ranksql/internal/types"
)

// Index is a secondary B+tree index over one column.
type Index struct {
	Column string
	Tree   *btree.Tree
	col    int // Column's position in the table schema
}

// insert adds one heap row to the index.
func (idx *Index) insert(tid schema.TID, row []types.Value) {
	idx.Tree.Insert(row[idx.col], tid)
}

// RankIndex is a B+tree over the scores of a ranking function applied to a
// table, enabling rank-scan: descending iteration yields tuples from the
// highest score down, with the score available without re-evaluating the
// (possibly expensive) function.
type RankIndex struct {
	// Scorer is the registered scoring function name, e.g. "f1".
	Scorer string
	// Columns are the argument columns, e.g. ["p1"].
	Columns []string
	// Tree maps score → TID.
	Tree *btree.Tree
	// Scores caches score by TID so a rank-scan can populate the tuple's
	// predicate slot for free.
	Scores []float64

	score  func(args []types.Value) float64
	argIdx []int // Columns' positions in the table schema
}

// insert scores one heap row and adds it to the index. Rows arrive in TID
// order, so the score lands at Scores[tid].
func (ri *RankIndex) insert(tid schema.TID, row []types.Value) {
	args := make([]types.Value, len(ri.argIdx))
	for i, ci := range ri.argIdx {
		args[i] = row[ci]
	}
	s := ri.score(args)
	ri.Scores = append(ri.Scores, s)
	ri.Tree.Insert(types.NewFloat(s), tid)
}

// Key returns the canonical identity of the rank index, e.g. "f1(p1)".
func (ri *RankIndex) Key() string { return RankIndexKey(ri.Scorer, ri.Columns) }

// RankIndexKey builds the canonical rank-index identity for a scorer name
// and argument columns.
func RankIndexKey(scorer string, columns []string) string {
	return strings.ToLower(scorer + "(" + strings.Join(columns, ",") + ")")
}

// ColumnStats summarizes one column for the cost model.
type ColumnStats struct {
	Distinct     int
	Min, Max     types.Value
	TrueFraction float64 // for BOOL columns: fraction of true values
}

// TableStats summarizes a table.
type TableStats struct {
	Rows    int
	Columns map[string]ColumnStats
}

// TableMeta bundles a stored table with its indexes, stats and sample.
type TableMeta struct {
	Table       *storage.Table
	Indexes     map[string]*Index     // by lower-cased column name
	RankIndexes map[string]*RankIndex // by RankIndexKey
	Stats       *TableStats

	// Sample is the deterministic row sample used by the sampling-based
	// cardinality estimator; SampleRatio is the fraction of rows it holds.
	Sample      *storage.Table
	SampleRatio float64

	// lazyMu serializes lazy (re)computation of Stats and Sample, which
	// otherwise races when concurrent read-only queries plan against the
	// same table for the first time.
	lazyMu sync.Mutex
}

// Catalog is the collection of tables. Table creation/removal and lookup
// are safe for concurrent use; mutating a table's contents still requires
// external write/read exclusion (the engine's DDL/DML write lock).
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*TableMeta
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: map[string]*TableMeta{}}
}

// CreateTable registers a new table.
func (c *Catalog) CreateTable(name string, sch *schema.Schema) (*TableMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	tm := &TableMeta{
		Table:       storage.NewTable(name, sch),
		Indexes:     map[string]*Index{},
		RankIndexes: map[string]*RankIndex{},
	}
	c.tables[key] = tm
	return tm, nil
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, key)
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*TableMeta, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tm, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return tm, nil
}

// TableNames returns the sorted table names.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, tm := range c.tables {
		out = append(out, tm.Table.Name)
	}
	sort.Strings(out)
	return out
}

// CreateIndex builds a secondary index over a column.
func (tm *TableMeta) CreateIndex(column string) (*Index, error) {
	key := strings.ToLower(column)
	if _, ok := tm.Indexes[key]; ok {
		return nil, fmt.Errorf("catalog: index on %s.%s already exists", tm.Table.Name, column)
	}
	ci := tm.Table.Schema.ColumnIndex("", column)
	if ci < 0 {
		return nil, fmt.Errorf("catalog: table %s has no column %q", tm.Table.Name, column)
	}
	idx := &Index{Column: tm.Table.Schema.Columns[ci].Name, Tree: btree.New(), col: ci}
	tm.Table.Scan(func(tid schema.TID, row []types.Value) bool {
		idx.insert(tid, row)
		return true
	})
	tm.Indexes[key] = idx
	return idx, nil
}

// Append adds a row to the heap and, in place, to every attribute and rank
// index, returning its TID. It is the only way a row reaches a table's
// indexes. Callers hold the engine's write lock; scans opened earlier
// keep their snapshot by skipping TIDs at or past their Open-time count.
func (tm *TableMeta) Append(row []types.Value) (schema.TID, error) {
	tid, err := tm.Table.Append(row)
	if err != nil {
		return 0, err
	}
	for _, idx := range tm.Indexes {
		idx.insert(tid, row)
	}
	for _, ri := range tm.RankIndexes {
		ri.insert(tid, row)
	}
	return tid, nil
}

// Index looks up the index on a column, if any.
func (tm *TableMeta) Index(column string) *Index {
	return tm.Indexes[strings.ToLower(column)]
}

// CreateRankIndex builds a rank index: score(row) is evaluated once per row
// (the one-time cost a real system pays at index build, and at each later
// Append), stored, and indexed descending-capable.
func (tm *TableMeta) CreateRankIndex(scorer string, columns []string, score func(args []types.Value) float64) (*RankIndex, error) {
	key := RankIndexKey(scorer, columns)
	if _, ok := tm.RankIndexes[key]; ok {
		return nil, fmt.Errorf("catalog: rank index %s on %s already exists", key, tm.Table.Name)
	}
	argIdx := make([]int, len(columns))
	for i, col := range columns {
		ci := tm.Table.Schema.ColumnIndex("", col)
		if ci < 0 {
			return nil, fmt.Errorf("catalog: table %s has no column %q", tm.Table.Name, col)
		}
		argIdx[i] = ci
	}
	ri := &RankIndex{
		Scorer:  scorer,
		Columns: columns,
		Tree:    btree.New(),
		Scores:  make([]float64, 0, tm.Table.NumRows()),
		score:   score,
		argIdx:  argIdx,
	}
	tm.Table.Scan(func(tid schema.TID, row []types.Value) bool {
		ri.insert(tid, row)
		return true
	})
	tm.RankIndexes[key] = ri
	return ri, nil
}

// RankIndex looks up a rank index by scorer name and argument columns.
func (tm *TableMeta) RankIndex(scorer string, columns []string) *RankIndex {
	return tm.RankIndexes[RankIndexKey(scorer, columns)]
}

// Analyze (re)computes table statistics with a full scan.
func (tm *TableMeta) Analyze() *TableStats {
	tm.lazyMu.Lock()
	defer tm.lazyMu.Unlock()
	return tm.analyzeLocked()
}

func (tm *TableMeta) analyzeLocked() *TableStats {
	sch := tm.Table.Schema
	st := &TableStats{
		Rows:    tm.Table.NumRows(),
		Columns: make(map[string]ColumnStats, sch.Len()),
	}
	type colAcc struct {
		distinct map[uint64]struct{}
		min, max types.Value
		trues    int
		seen     int
	}
	accs := make([]colAcc, sch.Len())
	for i := range accs {
		accs[i].distinct = map[uint64]struct{}{}
	}
	tm.Table.Scan(func(_ schema.TID, row []types.Value) bool {
		for i, v := range row {
			a := &accs[i]
			a.distinct[v.Hash()] = struct{}{}
			if a.seen == 0 || types.Compare(v, a.min) < 0 {
				a.min = v
			}
			if a.seen == 0 || types.Compare(v, a.max) > 0 {
				a.max = v
			}
			if v.Kind() == types.KindBool && v.Bool() {
				a.trues++
			}
			a.seen++
		}
		return true
	})
	for i, col := range sch.Columns {
		a := accs[i]
		cs := ColumnStats{Distinct: len(a.distinct), Min: a.min, Max: a.max}
		if col.Kind == types.KindBool && a.seen > 0 {
			cs.TrueFraction = float64(a.trues) / float64(a.seen)
		}
		st.Columns[strings.ToLower(col.Name)] = cs
	}
	tm.Stats = st
	return st
}

// EnsureStats returns the table's statistics, computing them if missing.
// Safe for concurrent callers.
func (tm *TableMeta) EnsureStats() *TableStats {
	tm.lazyMu.Lock()
	defer tm.lazyMu.Unlock()
	if tm.Stats == nil || tm.Stats.Rows != tm.Table.NumRows() {
		tm.analyzeLocked()
	}
	return tm.Stats
}

// BuildSample draws a deterministic sample of approximately ratio*N rows
// (at least minRows) using fixed-stride systematic sampling, which is
// deterministic and uniform for the synthetic workloads. The sample powers
// the §5.2 cardinality estimator.
func (tm *TableMeta) BuildSample(ratio float64, minRows int) *storage.Table {
	tm.lazyMu.Lock()
	defer tm.lazyMu.Unlock()
	return tm.buildSampleLocked(ratio, minRows)
}

func (tm *TableMeta) buildSampleLocked(ratio float64, minRows int) *storage.Table {
	n := tm.Table.NumRows()
	want := int(float64(n) * ratio)
	if want < minRows {
		want = minRows
	}
	if want > n {
		want = n
	}
	s := storage.NewTable(tm.Table.Name, tm.Table.Schema)
	if want > 0 {
		stride := float64(n) / float64(want)
		for i := 0; i < want; i++ {
			tid := schema.TID(float64(i) * stride)
			row := tm.Table.Row(tid)
			s.MustAppend(row)
		}
	}
	tm.Sample = s
	if n > 0 {
		tm.SampleRatio = float64(s.NumRows()) / float64(n)
	} else {
		tm.SampleRatio = 1
	}
	return s
}

// EnsureSample returns the table's sample, building it at the given ratio
// if missing or stale. Safe for concurrent callers.
func (tm *TableMeta) EnsureSample(ratio float64, minRows int) *storage.Table {
	tm.lazyMu.Lock()
	defer tm.lazyMu.Unlock()
	if tm.Sample == nil {
		tm.buildSampleLocked(ratio, minRows)
	}
	return tm.Sample
}
