package exec

import (
	"fmt"
	"time"

	"ranksql/internal/btree"
	"ranksql/internal/catalog"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/storage"
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
// descending order of one ranking predicate through the predicate's rank
// index. The predicate's score comes from the index for free — the
// one-time evaluation cost was paid when the row was indexed, exactly like
// an expression index in PostgreSQL.
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
}

// NewRankScan builds a rank-scan over the predicate's rank index; cond may
// be nil (no fused selection).
func NewRankScan(table *storage.Table, alias string, pred *rank.Predicate, index *catalog.RankIndex, cond expr.Expr) (*RankScan, error) {
	if index == nil {
		return nil, fmt.Errorf("exec: rank-scan of %s by %s has no rank index", alias, pred)
	}
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
	s.rows = schema.TID(s.table.NumRows())
	s.iter = s.index.Tree.Descend()
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
		e, ok := s.iter.Next()
		if !ok {
			return nil, nil
		}
		if e.TID >= s.rows {
			continue
		}
		t := ctx.newTuple(e.TID, s.table.Row(e.TID), s.npreds)
		t.Preds[s.pred.Index] = s.index.Scores[e.TID]
		t.Evaluated = schema.Bit(s.pred.Index)
		ctx.Spec.Rescore(t)
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
// for sort-merge joins. Under inserts it keeps its Open-time snapshot the
// way RankScan does.
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
}

// NewIdxScanCol builds a scan over column's attribute index; cond may be
// nil.
func NewIdxScanCol(table *storage.Table, alias, column string, index *catalog.Index, cond expr.Expr) (*IdxScanCol, error) {
	if index == nil {
		return nil, fmt.Errorf("exec: column scan of %s.%s has no index", alias, column)
	}
	s := &IdxScanCol{table: table, alias: alias, column: column, index: index, cond: cond}
	s.sch = aliasedSchema(table, alias)
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
	s.rows = schema.TID(s.table.NumRows())
	s.iter = s.index.Tree.Ascend()
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
		e, ok := s.iter.Next()
		if !ok {
			return nil, nil
		}
		if e.TID >= s.rows {
			continue
		}
		t := ctx.newTuple(e.TID, s.table.Row(e.TID), s.npreds)
		t.Score = s.ceiling
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
