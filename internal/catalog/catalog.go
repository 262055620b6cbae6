// Package catalog tracks the database's tables, secondary indexes, rank
// indexes (B+trees over ranking-predicate scores, the access path of the
// paper's rank-scan operator), and per table the optimizer's snapshot:
// the distinct counts its cost model reads and the row sample its
// cardinality estimator runs subplans against (§5.2).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

// RankIndexKey builds the canonical rank-index identity for a scorer name
// and argument columns.
func RankIndexKey(scorer string, columns []string) string {
	return strings.ToLower(scorer + "(" + strings.Join(columns, ",") + ")")
}

// TableMeta bundles a stored table with its indexes and the optimizer's
// current snapshot of it.
type TableMeta struct {
	Table       *storage.Table
	Indexes     map[string]*Index     // by lower-cased column name
	RankIndexes map[string]*RankIndex // by RankIndexKey

	// snap is the published Snapshot (nil until first drawn, and again
	// after DDL adds an index); drawMu lets one of several concurrent
	// callers that find it stale draw the next one.
	snap   atomic.Pointer[Snapshot]
	drawMu sync.Mutex
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
	tm := newTableMeta(name, sch)
	c.tables[key] = tm
	return tm, nil
}

func newTableMeta(name string, sch *schema.Schema) *TableMeta {
	return &TableMeta{
		Table:       storage.NewTable(name, sch),
		Indexes:     map[string]*Index{},
		RankIndexes: map[string]*RankIndex{},
	}
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
	tm.snap.Store(nil) // its sample lacks the new index
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
	tm.snap.Store(nil) // its sample lacks the new index
	return ri, nil
}

// RankIndex looks up a rank index by scorer name and argument columns.
func (tm *TableMeta) RankIndex(scorer string, columns []string) *RankIndex {
	return tm.RankIndexes[RankIndexKey(scorer, columns)]
}

// maxGrowth is how far a table may grow past the row count its snapshot
// was drawn at before the snapshot, and every plan costed on it, is stale:
// 2 = the table doubled.
const maxGrowth = 2

// Snapshot is the optimizer's view of a table (§5.2): its row count, the
// per-column distinct counts the cost model reads, and a deterministic row
// sample the estimator runs candidate plans on. The sample is a TableMeta
// of its own with the table's attribute and rank indexes, so a plan runs
// the same operators on it as on the table. What a snapshot reports never
// changes once it is published.
type Snapshot struct {
	// Rows is the table's row count when the snapshot was drawn.
	Rows int
	// Sample holds about ratio·Rows rows (at least minRows, at most Rows);
	// Ratio is the share of Rows it holds (1 for an empty table).
	Sample *TableMeta
	Ratio  float64

	table   *TableMeta
	ratio   float64 // the sampling parameters it was drawn with
	minRows int

	// distinct memoizes Distinct by column position; -1 is not counted yet.
	distinctMu sync.Mutex
	distinct   []int
}

// Distinct returns the number of distinct values column col held in the
// snapshot's Rows rows, or 0 for an unknown column. A column is counted at
// its first request: only join keys are asked for, and a scan of every
// column would cost each single-table template's first compile a full
// pass over its table. The table is append-only, so the count is the
// same whenever it is taken. Callers exclude writers to the table, as for
// Current.
func (s *Snapshot) Distinct(col string) int {
	ci := s.table.Table.Schema.ColumnIndex("", col)
	if ci < 0 {
		return 0
	}
	s.distinctMu.Lock()
	defer s.distinctMu.Unlock()
	if s.distinct[ci] < 0 {
		seen := map[uint64]struct{}{}
		for tid := 0; tid < s.Rows; tid++ {
			seen[s.table.Table.Row(schema.TID(tid))[ci].Hash()] = struct{}{}
		}
		s.distinct[ci] = len(seen)
	}
	return s.distinct[ci]
}

// Current reports whether s is still its table's snapshot and the table
// has not grown past maxGrowth times s.Rows. It takes no lock; callers
// exclude writers to the table (the engine's read lock).
func (s *Snapshot) Current() bool {
	return s.table.snap.Load() == s && s.table.Table.NumRows() <= maxGrowth*s.Rows
}

// Snapshot returns the table's snapshot for the given sampling
// parameters, drawing and publishing a new one when the current one is
// missing, stale, or drawn with other parameters. Concurrent callers that
// find it stale share one draw.
func (tm *TableMeta) Snapshot(ratio float64, minRows int) *Snapshot {
	fits := func(s *Snapshot) bool {
		return s != nil && s.ratio == ratio && s.minRows == minRows && s.Current()
	}
	if s := tm.snap.Load(); fits(s) {
		return s
	}
	tm.drawMu.Lock()
	defer tm.drawMu.Unlock()
	if s := tm.snap.Load(); fits(s) {
		return s
	}
	s := tm.draw(ratio, minRows)
	tm.snap.Store(s)
	return s
}

// draw takes a fixed-stride systematic sample of about ratio·N rows (at
// least minRows), which is deterministic and uniform for the synthetic
// workloads.
func (tm *TableMeta) draw(ratio float64, minRows int) *Snapshot {
	n := tm.Table.NumRows()
	sch := tm.Table.Schema
	s := &Snapshot{Rows: n, Ratio: 1, table: tm, ratio: ratio, minRows: minRows,
		distinct: make([]int, sch.Len())}
	for i := range s.distinct {
		s.distinct[i] = -1
	}

	sample := newTableMeta(tm.Table.Name, sch)
	want := min(max(int(float64(n)*ratio), minRows), n)
	stride := float64(n) / float64(want)
	for i := 0; i < want; i++ {
		sample.Table.MustAppend(tm.Table.Row(schema.TID(float64(i) * stride)))
	}
	// The table's own definitions, so neither can fail.
	for _, idx := range tm.Indexes {
		if _, err := sample.CreateIndex(idx.Column); err != nil {
			panic(err)
		}
	}
	for _, ri := range tm.RankIndexes {
		if _, err := sample.CreateRankIndex(ri.Scorer, ri.Columns, ri.score); err != nil {
			panic(err)
		}
	}
	s.Sample = sample
	if n > 0 {
		s.Ratio = float64(want) / float64(n)
	}
	return s
}
