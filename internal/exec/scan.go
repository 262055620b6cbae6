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
	// between pulls (resumable cursors) while inserts land. IndexScan
	// pins the same bound.
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

// IndexScan streams a table in the order of one B+tree index. Over a
// rank index it is the paper's idxScan_p: tuples come in descending order
// of one ranking predicate, whose score it takes from the index for free —
// the one-time evaluation cost was paid when the row was indexed, exactly
// like an expression index in PostgreSQL. Over an attribute index it walks
// ascending at the ceiling score, the access path that provides the
// "interesting order" for sort-merge joins.
//
// An optional fused selection condition (scan-based selection, §4.2)
// filters tuples during the scan.
//
// Inserts update the index in place while a scan is suspended; the
// iterator re-seeks after each, and the scan keeps its Open-time snapshot
// by skipping entries whose TID is at or past the row count it pinned.
type IndexScan struct {
	opBase
	table *storage.Table
	alias string
	tree  *btree.Tree
	cond  expr.Expr
	// Over a rank index, pred is the predicate it scores and ri the
	// index holding those scores; both are nil over an attribute index,
	// which column names.
	pred   *rank.Predicate
	ri     *catalog.RankIndex
	column string

	npreds  int
	ceiling float64
	rows    schema.TID // row count at Open; entries at or past it are newer
	iter    *btree.Iterator
}

// NewRankScan builds idxScan_pred: a descending scan of the predicate's
// rank index; cond may be nil (no fused selection).
func NewRankScan(table *storage.Table, alias string, pred *rank.Predicate, index *catalog.RankIndex, cond expr.Expr) (*IndexScan, error) {
	if index == nil {
		return nil, fmt.Errorf("exec: rank-scan of %s by %s has no rank index", alias, pred)
	}
	return newIndexScan(&IndexScan{table: table, alias: alias, tree: index.Tree, cond: cond, pred: pred, ri: index})
}

// NewIdxScanCol builds an ascending scan of column's attribute index;
// cond may be nil.
func NewIdxScanCol(table *storage.Table, alias, column string, index *catalog.Index, cond expr.Expr) (*IndexScan, error) {
	if index == nil {
		return nil, fmt.Errorf("exec: column scan of %s.%s has no index", alias, column)
	}
	return newIndexScan(&IndexScan{table: table, alias: alias, tree: index.Tree, cond: cond, column: column})
}

func newIndexScan(s *IndexScan) (*IndexScan, error) {
	s.sch = aliasedSchema(s.table, s.alias)
	if s.cond != nil {
		if err := expr.Bind(s.cond, s.sch); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Open implements Operator.
func (s *IndexScan) Open(ctx *Context) error {
	if ctx.Profile {
		defer s.prof(time.Now())
	}
	s.reset()
	s.npreds = ctx.Spec.N()
	s.ceiling = ctx.Spec.CeilingScore()
	s.rows = schema.TID(s.table.NumRows())
	if s.ri != nil {
		s.iter = s.tree.Descend()
	} else {
		s.iter = s.tree.Ascend()
	}
	return nil
}

// Next implements Operator.
func (s *IndexScan) Next(ctx *Context) (*schema.Tuple, error) {
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
		if s.ri != nil {
			t.Preds[s.pred.Index] = s.ri.Scores[e.TID]
			t.Evaluated = schema.Bit(s.pred.Index)
			ctx.Spec.Rescore(t)
		} else {
			t.Score = s.ceiling
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
func (s *IndexScan) Close() error {
	s.iter = nil
	return nil
}

// BoundCond implements CondHolder.
func (s *IndexScan) BoundCond() expr.Expr { return s.cond }

// Evaluated implements Operator.
func (s *IndexScan) Evaluated() schema.Bitset {
	if s.pred == nil {
		return 0
	}
	return schema.Bit(s.pred.Index)
}

// Name implements Operator.
func (s *IndexScan) Name() string {
	by := s.column
	if s.pred != nil {
		by = s.pred.String()
	}
	if s.cond != nil {
		return fmt.Sprintf("idxScan_%s(%s | %s)", by, s.alias, s.cond)
	}
	return fmt.Sprintf("idxScan_%s(%s)", by, s.alias)
}

// Children implements Operator.
func (s *IndexScan) Children() []Operator { return nil }
