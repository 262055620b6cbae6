package optimizer

import (
	"fmt"
	"strings"

	"ranksql/internal/catalog"
	"ranksql/internal/exec"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/storage"
)

// PlanKind enumerates physical plan node types.
type PlanKind int

// Physical plan node kinds.
const (
	KindSeqScan PlanKind = iota
	KindRankScan
	KindIdxScanCol
	KindFilter
	KindRank
	KindHRJN
	KindNRJN
	KindNestedLoop
	KindHashJoin
	KindMergeJoin
	KindSortScore
	KindSortColumn
	KindLimit
)

var kindNames = map[PlanKind]string{
	KindSeqScan: "seqScan", KindRankScan: "idxScan", KindIdxScanCol: "idxScanCol",
	KindFilter: "filter", KindRank: "rank", KindHRJN: "HRJN", KindNRJN: "NRJN",
	KindNestedLoop: "nestLoop", KindHashJoin: "hashJoin", KindMergeJoin: "mergeJoin",
	KindSortScore: "sort", KindSortColumn: "sortCol", KindLimit: "limit",
}

// PlanNode is a buildable physical plan description. The optimizer
// enumerates PlanNode trees; Build instantiates them as executable
// operator trees against either the real tables or the catalog samples
// (for the §5.2 estimator).
type PlanNode struct {
	Kind     PlanKind
	Children []*PlanNode

	// Scans.
	Alias string
	// Rank / RankScan.
	Pred *rank.Predicate
	// Filter / join residual condition (template; cloned when bound).
	Cond expr.Expr
	// Equi-join keys.
	LeftKey, RightKey *expr.Col
	// Column sorts / index column scans.
	SortTable, SortCol string
	// Limit.
	K int

	// Annotations (filled during enumeration).
	Card float64 // estimated output cardinality
	Cost float64 // estimated cumulative cost
	Eval schema.Bitset
	SR   tableSet

	estDone  bool // Card has been estimated (kept with the subplan, §5.2)
	fallback bool // Card comes from an Estimator fallback, not a sample count
	costDone bool // Cost has been computed
}

// child returns the i-th child.
func (p *PlanNode) child(i int) *PlanNode { return p.Children[i] }

// Label renders the node for EXPLAIN.
func (p *PlanNode) Label() string {
	switch p.Kind {
	case KindSeqScan:
		return fmt.Sprintf("seqScan(%s)", p.Alias)
	case KindRankScan:
		return fmt.Sprintf("idxScan_%s(%s)", p.Pred, p.Alias)
	case KindIdxScanCol:
		return fmt.Sprintf("idxScan_%s(%s)", p.SortCol, p.Alias)
	case KindFilter:
		return fmt.Sprintf("filter(%s)", p.Cond)
	case KindRank:
		return fmt.Sprintf("rank_%s", p.Pred)
	case KindHRJN:
		return fmt.Sprintf("HRJN(%s=%s)", p.LeftKey, p.RightKey)
	case KindNRJN:
		return fmt.Sprintf("NRJN(%s)", p.Cond)
	case KindNestedLoop:
		if p.Cond != nil {
			return fmt.Sprintf("nestLoop(%s)", p.Cond)
		}
		return "nestLoop(x)"
	case KindHashJoin:
		return fmt.Sprintf("hashJoin(%s=%s)", p.LeftKey, p.RightKey)
	case KindMergeJoin:
		return fmt.Sprintf("mergeJoin(%s=%s)", p.LeftKey, p.RightKey)
	case KindSortScore:
		return "sort_F"
	case KindSortColumn:
		return fmt.Sprintf("sortCol(%s.%s)", p.SortTable, p.SortCol)
	case KindLimit:
		return fmt.Sprintf("limit(%d)", p.K)
	default:
		return kindNames[p.Kind]
	}
}

// String renders the plan tree. A card the estimator could not scale
// from a sample count carries est=fallback (see Estimator).
func (p *PlanNode) String() string {
	var b strings.Builder
	var rec func(n *PlanNode, depth int)
	rec = func(n *PlanNode, depth int) {
		fmt.Fprintf(&b, "%s%s  [card=%.1f cost=%.1f",
			strings.Repeat("  ", depth), n.Label(), n.Card, n.Cost)
		if n.fallback {
			b.WriteString(" est=fallback")
		}
		b.WriteString("]\n")
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(p, 0)
	return b.String()
}

// Env tells Build where to find data: the catalog, the alias → table-name
// mapping, and whether to use the per-table samples (the estimator's mode;
// samples carry no indexes, so index scans fall back to materialize+sort,
// which is correct on tiny samples).
type Env struct {
	Catalog   *catalog.Catalog
	Aliases   map[string]string // lower(alias) → table name
	UseSample bool
	// SampleRatio / MinSampleRows configure sample construction on
	// demand when UseSample is set.
	SampleRatio   float64
	MinSampleRows int
}

// tableFor resolves the storage table for an alias.
func (e *Env) tableFor(alias string) (*storage.Table, *catalog.TableMeta, error) {
	name, ok := e.Aliases[strings.ToLower(alias)]
	if !ok {
		return nil, nil, fmt.Errorf("optimizer: unknown alias %q", alias)
	}
	tm, err := e.Catalog.Table(name)
	if err != nil {
		return nil, nil, err
	}
	if e.UseSample {
		return tm.EnsureSample(e.SampleRatio, e.MinSampleRows), tm, nil
	}
	return tm.Table, tm, nil
}

// rankIndexFor finds a rank index matching the predicate, or nil.
func rankIndexFor(tm *catalog.TableMeta, p *rank.Predicate) *catalog.RankIndex {
	if p.Scorer == "" {
		return nil
	}
	cols := make([]string, len(p.Args))
	for i, a := range p.Args {
		cols[i] = a.Column
	}
	return tm.RankIndex(p.Scorer, cols)
}

// Build instantiates the plan as an executable operator tree.
func (p *PlanNode) Build(env *Env) (exec.Operator, error) {
	kids := make([]exec.Operator, len(p.Children))
	for i, c := range p.Children {
		k, err := c.Build(env)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	switch p.Kind {
	case KindSeqScan:
		tbl, _, err := env.tableFor(p.Alias)
		if err != nil {
			return nil, err
		}
		return exec.NewSeqScan(tbl, p.Alias), nil
	case KindRankScan:
		tbl, tm, err := env.tableFor(p.Alias)
		if err != nil {
			return nil, err
		}
		var ri *catalog.RankIndex
		if !env.UseSample {
			ri = rankIndexFor(tm, p.Pred)
		}
		var cond expr.Expr
		if p.Cond != nil {
			cond = expr.Clone(p.Cond)
		}
		return exec.NewRankScan(tbl, p.Alias, p.Pred, ri, cond)
	case KindIdxScanCol:
		tbl, tm, err := env.tableFor(p.Alias)
		if err != nil {
			return nil, err
		}
		var idx *catalog.Index
		if !env.UseSample {
			idx = tm.Index(p.SortCol)
		}
		var cond expr.Expr
		if p.Cond != nil {
			cond = expr.Clone(p.Cond)
		}
		return exec.NewIdxScanCol(tbl, p.Alias, p.SortCol, idx, cond)
	case KindFilter:
		return exec.NewFilter(kids[0], expr.Clone(p.Cond))
	case KindRank:
		return exec.NewRank(kids[0], p.Pred)
	case KindHRJN:
		var extra expr.Expr
		if p.Cond != nil {
			extra = expr.Clone(p.Cond)
		}
		return exec.NewHRJN(kids[0], kids[1], p.LeftKey, p.RightKey, extra)
	case KindNRJN:
		return exec.NewNRJN(kids[0], kids[1], expr.Clone(p.Cond))
	case KindNestedLoop:
		var cond expr.Expr
		if p.Cond != nil {
			cond = expr.Clone(p.Cond)
		}
		return exec.NewNestedLoopJoin(kids[0], kids[1], cond)
	case KindHashJoin:
		var extra expr.Expr
		if p.Cond != nil {
			extra = expr.Clone(p.Cond)
		}
		return exec.NewHashJoin(kids[0], kids[1], p.LeftKey, p.RightKey, extra)
	case KindMergeJoin:
		var extra expr.Expr
		if p.Cond != nil {
			extra = expr.Clone(p.Cond)
		}
		return exec.NewSortMergeJoin(kids[0], kids[1], p.LeftKey, p.RightKey, extra)
	case KindSortScore:
		return exec.NewSortScore(kids[0]), nil
	case KindSortColumn:
		return exec.NewSortColumn(kids[0], p.SortTable, p.SortCol, true)
	case KindLimit:
		return exec.NewLimit(kids[0], p.K), nil
	default:
		return nil, fmt.Errorf("optimizer: cannot build plan kind %d", p.Kind)
	}
}
