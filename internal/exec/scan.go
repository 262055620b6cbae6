package exec

import (
	"fmt"
	"sort"
	"time"

	"ranksql/internal/btree"
	"ranksql/internal/catalog"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/storage"
	"ranksql/internal/types"
)

// aliasedSchema qualifies a table schema with the query alias so columns
// resolve as alias.column downstream.
func aliasedSchema(t *storage.Table, alias string) *schema.Schema {
	cols := make([]schema.Column, t.Schema.Len())
	for i, c := range t.Schema.Columns {
		cols[i] = schema.Column{Table: alias, Name: c.Name, Kind: c.Kind}
	}
	return schema.NewSchema(cols...)
}

// SeqScan reads a heap table in TID order. Its output is the unranked
// rank-relation R_∅: every tuple carries the ceiling score F_∅.
type SeqScan struct {
	opBase
	table *storage.Table
	alias string

	tid int
	// rows pins the table's row count at Open. Tables are append-only and
	// TIDs are insertion positions, so a scan bounded by its Open-time
	// count is a consistent snapshot even when the tree is suspended
	// between pulls (resumable cursors) while inserts land. The index
	// scans below pin the same bound.
	rows    int
	ceiling float64
	npreds  int
}

// NewSeqScan builds a sequential scan over table, qualified by alias.
func NewSeqScan(table *storage.Table, alias string) *SeqScan {
	s := &SeqScan{table: table, alias: alias}
	s.sch = aliasedSchema(table, alias)
	return s
}

// Open implements Operator.
func (s *SeqScan) Open(ctx *Context) error {
	if ctx.Profile {
		defer s.prof(time.Now())
	}
	s.tid = 0
	s.rows = s.table.NumRows()
	s.reset()
	s.ceiling = ctx.Spec.CeilingScore()
	s.npreds = ctx.Spec.N()
	return nil
}

// Next implements Operator.
func (s *SeqScan) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer s.prof(time.Now())
	}
	if err := ctx.interrupted(); err != nil {
		return nil, err
	}
	if s.tid >= s.rows {
		return nil, nil
	}
	row := s.table.Row(schema.TID(s.tid))
	t := ctx.newTuple(schema.TID(s.tid), row, s.npreds)
	t.Score = s.ceiling
	s.tid++
	ctx.Stats.TuplesScanned++
	s.scanned()
	return s.emit(t), nil
}

// Close implements Operator.
func (s *SeqScan) Close() error { return nil }

// Evaluated implements Operator.
func (s *SeqScan) Evaluated() schema.Bitset { return 0 }

// Name implements Operator.
func (s *SeqScan) Name() string { return fmt.Sprintf("seqScan(%s)", s.alias) }

// Children implements Operator.
func (s *SeqScan) Children() []Operator { return nil }

// RankScan is the paper's idxScan_p: it streams a table's tuples in
// descending order of one ranking predicate, using a rank index when one is
// available. The predicate's score comes from the index for free — the
// one-time evaluation cost was paid when the row was indexed, exactly like
// an expression index in PostgreSQL.
//
// When no index is supplied (Index == nil) the operator falls back to
// materialize + evaluate + sort. The fallback pays the predicate's
// evaluation cost per tuple and is what the sampling-based estimator uses
// on sample tables, which have no indexes.
//
// An optional fused selection condition (scan-based selection, §4.2)
// filters tuples during the scan.
//
// Inserts update the index in place while a scan is suspended; the
// iterator re-seeks after each, and the scan keeps its Open-time snapshot
// by skipping entries whose TID is at or past the row count it pinned.
type RankScan struct {
	opBase
	table *storage.Table
	alias string
	pred  *rank.Predicate
	index *catalog.RankIndex
	cond  expr.Expr

	npreds int
	rows   schema.TID // row count at Open; entries at or past it are newer
	iter   *btree.Iterator
	sorted []*schema.Tuple // fallback mode
	pos    int
}

// NewRankScan builds a rank-scan. index may be nil (fallback mode); cond
// may be nil (no fused selection).
func NewRankScan(table *storage.Table, alias string, pred *rank.Predicate, index *catalog.RankIndex, cond expr.Expr) (*RankScan, error) {
	s := &RankScan{table: table, alias: alias, pred: pred, index: index, cond: cond}
	s.sch = aliasedSchema(table, alias)
	if cond != nil {
		if err := expr.Bind(cond, s.sch); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Open implements Operator.
func (s *RankScan) Open(ctx *Context) error {
	if ctx.Profile {
		defer s.prof(time.Now())
	}
	s.reset()
	s.npreds = ctx.Spec.N()
	s.pos = 0
	s.sorted = nil
	if s.index != nil {
		s.rows = schema.TID(s.table.NumRows())
		s.iter = s.index.Tree.Descend()
		return nil
	}
	// Fallback: evaluate the predicate over the whole table and sort.
	bp, err := bindPred(s.pred, s.sch, false)
	if err != nil {
		return err
	}
	s.sorted = make([]*schema.Tuple, 0, s.table.NumRows())
	s.table.Scan(func(tid schema.TID, row []types.Value) bool {
		t := ctx.newTuple(tid, row, s.npreds)
		ctx.evalPred(bp, t)
		s.sorted = append(s.sorted, t)
		return true
	})
	sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i].Less(s.sorted[j]) })
	return nil
}

// Next implements Operator.
func (s *RankScan) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer s.prof(time.Now())
	}
	for {
		if err := ctx.interrupted(); err != nil {
			return nil, err
		}
		var t *schema.Tuple
		if s.index != nil {
			e, ok := s.iter.Next()
			if !ok {
				return nil, nil
			}
			if e.TID >= s.rows {
				continue
			}
			row := s.table.Row(e.TID)
			t = ctx.newTuple(e.TID, row, s.npreds)
			t.Preds[s.pred.Index] = s.index.Scores[e.TID]
			t.Evaluated = schema.Bit(s.pred.Index)
			ctx.Spec.Rescore(t)
		} else {
			if s.pos >= len(s.sorted) {
				return nil, nil
			}
			t = s.sorted[s.pos]
			s.pos++
		}
		ctx.Stats.TuplesScanned++
		s.scanned()
		if s.cond != nil {
			ctx.Stats.Comparisons++
			ok, err := expr.EvalBool(s.cond, t)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		return s.emit(t), nil
	}
}

// Close implements Operator.
func (s *RankScan) Close() error {
	s.iter = nil
	s.sorted = nil
	return nil
}

// BoundCond implements CondHolder.
func (s *RankScan) BoundCond() expr.Expr { return s.cond }

// Evaluated implements Operator.
func (s *RankScan) Evaluated() schema.Bitset { return schema.Bit(s.pred.Index) }

// Name implements Operator.
func (s *RankScan) Name() string {
	if s.cond != nil {
		return fmt.Sprintf("idxScan_%s(%s | %s)", s.pred, s.alias, s.cond)
	}
	return fmt.Sprintf("idxScan_%s(%s)", s.pred, s.alias)
}

// Children implements Operator.
func (s *RankScan) Children() []Operator { return nil }

// IdxScanCol streams a table in ascending order of one column using an
// attribute index — the access path that provides the "interesting order"
// for sort-merge joins. Without an index it falls back to materialize +
// sort (used on samples). Under inserts it keeps its Open-time snapshot
// the way RankScan does.
type IdxScanCol struct {
	opBase
	table  *storage.Table
	alias  string
	column string
	index  *catalog.Index
	cond   expr.Expr

	npreds  int
	ceiling float64
	rows    schema.TID // row count at Open; entries at or past it are newer
	iter    *btree.Iterator
	sorted  []*schema.Tuple
	pos     int
	colIdx  int
}

// NewIdxScanCol builds a column-ordered index scan. index may be nil
// (fallback sort mode); cond may be nil.
func NewIdxScanCol(table *storage.Table, alias, column string, index *catalog.Index, cond expr.Expr) (*IdxScanCol, error) {
	s := &IdxScanCol{table: table, alias: alias, column: column, index: index, cond: cond}
	s.sch = aliasedSchema(table, alias)
	s.colIdx = s.sch.ColumnIndex(alias, column)
	if s.colIdx < 0 {
		return nil, fmt.Errorf("exec: table %s has no column %q", alias, column)
	}
	if cond != nil {
		if err := expr.Bind(cond, s.sch); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Open implements Operator.
func (s *IdxScanCol) Open(ctx *Context) error {
	if ctx.Profile {
		defer s.prof(time.Now())
	}
	s.reset()
	s.npreds = ctx.Spec.N()
	s.ceiling = ctx.Spec.CeilingScore()
	s.pos = 0
	s.sorted = nil
	if s.index != nil {
		s.rows = schema.TID(s.table.NumRows())
		s.iter = s.index.Tree.Ascend()
		return nil
	}
	s.sorted = make([]*schema.Tuple, 0, s.table.NumRows())
	s.table.Scan(func(tid schema.TID, row []types.Value) bool {
		t := ctx.newTuple(tid, row, s.npreds)
		t.Score = s.ceiling
		s.sorted = append(s.sorted, t)
		return true
	})
	ci := s.colIdx
	sort.SliceStable(s.sorted, func(i, j int) bool {
		return types.Compare(s.sorted[i].Values[ci], s.sorted[j].Values[ci]) < 0
	})
	return nil
}

// Next implements Operator.
func (s *IdxScanCol) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer s.prof(time.Now())
	}
	for {
		if err := ctx.interrupted(); err != nil {
			return nil, err
		}
		var t *schema.Tuple
		if s.index != nil {
			e, ok := s.iter.Next()
			if !ok {
				return nil, nil
			}
			if e.TID >= s.rows {
				continue
			}
			row := s.table.Row(e.TID)
			t = ctx.newTuple(e.TID, row, s.npreds)
			t.Score = s.ceiling
		} else {
			if s.pos >= len(s.sorted) {
				return nil, nil
			}
			t = s.sorted[s.pos]
			s.pos++
		}
		ctx.Stats.TuplesScanned++
		s.scanned()
		if s.cond != nil {
			ctx.Stats.Comparisons++
			ok, err := expr.EvalBool(s.cond, t)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		return s.emit(t), nil
	}
}

// Close implements Operator.
func (s *IdxScanCol) Close() error {
	s.iter = nil
	s.sorted = nil
	return nil
}

// BoundCond implements CondHolder.
func (s *IdxScanCol) BoundCond() expr.Expr { return s.cond }

// Evaluated implements Operator.
func (s *IdxScanCol) Evaluated() schema.Bitset { return 0 }

// Name implements Operator.
func (s *IdxScanCol) Name() string {
	if s.cond != nil {
		return fmt.Sprintf("idxScan_%s(%s | %s)", s.column, s.alias, s.cond)
	}
	return fmt.Sprintf("idxScan_%s(%s)", s.column, s.alias)
}

// Children implements Operator.
func (s *IdxScanCol) Children() []Operator { return nil }
