package optimizer

import (
	"fmt"
	"math"
	"strings"

	"ranksql/internal/catalog"
	"ranksql/internal/exec"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
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
	KindUnion
	KindIntersect
	KindDiff
	KindProject
)

var kindNames = map[PlanKind]string{
	KindSeqScan: "seqScan", KindRankScan: "idxScan", KindIdxScanCol: "idxScanCol",
	KindFilter: "filter", KindRank: "rank", KindHRJN: "HRJN", KindNRJN: "NRJN",
	KindNestedLoop: "nestLoop", KindHashJoin: "hashJoin", KindMergeJoin: "mergeJoin",
	KindSortScore: "sort", KindSortColumn: "sortCol", KindLimit: "limit",
	KindUnion: "rankUnion", KindIntersect: "rankIntersect", KindDiff: "rankDiff",
}

// PlanNode is a buildable physical plan description. The optimizer
// enumerates PlanNode trees; Build instantiates them as executable
// operator trees against either the real tables or their snapshot samples
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
	// Project: the child output's column positions kept, in output order.
	Proj []int
	// Set operations: each operand's environment, parallel to Children.
	// Two operands may give one alias to two tables.
	Envs []*Env

	// Annotations (filled during enumeration).
	Card float64 // estimated output cardinality
	Cost float64 // estimated cumulative cost

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
	case KindProject:
		return fmt.Sprintf("project%v", p.Proj)
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

// Env tells Build where to find data: the table each query alias reads.
// Optimize's Result carries an Env over the real tables; the Estimator's
// maps every alias to its table's snapshot sample, which carries the
// table's indexes, so a plan builds the same operators on either.
type Env struct {
	Tables map[string]*catalog.TableMeta // by lower-cased alias
}

// tableFor resolves the table an alias reads.
func (e *Env) tableFor(alias string) (*catalog.TableMeta, error) {
	tm, ok := e.Tables[strings.ToLower(alias)]
	if !ok {
		return nil, fmt.Errorf("optimizer: unknown alias %q", alias)
	}
	return tm, nil
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

// Build instantiates the plan as an executable operator tree. A set
// operation builds each operand against that operand's own Env.
func (p *PlanNode) Build(env *Env) (exec.Operator, error) {
	kids := make([]exec.Operator, len(p.Children))
	for i, c := range p.Children {
		cenv := env
		if p.Envs != nil {
			cenv = p.Envs[i]
		}
		k, err := c.Build(cenv)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	return p.Operator(env, kids...)
}

// Operator instantiates p's own operator over already-built inputs, one
// per child: Build passes the children's trees, the Estimator replays of
// their sample runs. Only scans read env.
func (p *PlanNode) Operator(env *Env, kids ...exec.Operator) (exec.Operator, error) {
	switch p.Kind {
	case KindSeqScan:
		tm, err := env.tableFor(p.Alias)
		if err != nil {
			return nil, err
		}
		return exec.NewSeqScan(tm.Table, p.Alias), nil
	case KindRankScan:
		tm, err := env.tableFor(p.Alias)
		if err != nil {
			return nil, err
		}
		return exec.NewRankScan(tm.Table, p.Alias, p.Pred, rankIndexFor(tm, p.Pred), expr.Clone(p.Cond))
	case KindIdxScanCol:
		tm, err := env.tableFor(p.Alias)
		if err != nil {
			return nil, err
		}
		return exec.NewIdxScanCol(tm.Table, p.Alias, p.SortCol, tm.Index(p.SortCol), expr.Clone(p.Cond))
	case KindFilter:
		return exec.NewFilter(kids[0], expr.Clone(p.Cond))
	case KindRank:
		return exec.NewRank(kids[0], p.Pred)
	case KindHRJN:
		return exec.NewHRJN(kids[0], kids[1], p.LeftKey, p.RightKey, expr.Clone(p.Cond))
	case KindNRJN:
		return exec.NewNRJN(kids[0], kids[1], expr.Clone(p.Cond))
	case KindNestedLoop:
		return exec.NewNestedLoopJoin(kids[0], kids[1], expr.Clone(p.Cond))
	case KindHashJoin:
		return exec.NewHashJoin(kids[0], kids[1], p.LeftKey, p.RightKey, expr.Clone(p.Cond))
	case KindMergeJoin:
		return exec.NewSortMergeJoin(kids[0], kids[1], p.LeftKey, p.RightKey, expr.Clone(p.Cond))
	case KindSortScore:
		return exec.NewSortScore(kids[0]), nil
	case KindSortColumn:
		return exec.NewSortColumn(kids[0], p.SortTable, p.SortCol)
	case KindLimit:
		return exec.NewLimit(kids[0], p.K), nil
	case KindProject:
		return exec.NewProject(kids[0], p.Proj)
	case KindUnion:
		return exec.NewRankUnion(kids[0], kids[1])
	case KindIntersect:
		return exec.NewRankIntersect(kids[0], kids[1])
	case KindDiff:
		return exec.NewRankDiff(kids[0], kids[1])
	default:
		return nil, fmt.Errorf("optimizer: cannot build plan kind %d", p.Kind)
	}
}

// Estimates aligns a plan's per-node cardinality estimates with the
// snapshot of a tree built from it, returning one estimate per snapshot
// node (pre-order, parallel to tree). Build makes the tree node for node,
// so the two pair positionally. A size mismatch returns nil: estimate
// drift is a diagnostic, and a wrong positional pairing would be worse
// than no pairing.
func Estimates(plan *PlanNode, tree exec.TreeSnapshot) []float64 {
	if plan == nil || len(tree) == 0 {
		return nil
	}
	ests := make([]float64, 0, len(tree))
	var flatten func(n *PlanNode)
	flatten = func(n *PlanNode) {
		ests = append(ests, n.Card)
		for _, c := range n.Children {
			flatten(c)
		}
	}
	flatten(plan)
	if len(tree) != len(ests) {
		return nil
	}
	return ests
}

// Limit roots p in λ_k. The cut passes at most k of p's tuples and does
// no work of its own.
func Limit(p *PlanNode, k int) *PlanNode {
	return annotated(&PlanNode{Kind: KindLimit, K: k, Children: []*PlanNode{p},
		Card: math.Min(float64(k), p.Card), Cost: p.Cost})
}

// Project roots p in π over the columns at positions idx of its output.
// π passes its input through row for row.
func Project(p *PlanNode, idx []int) *PlanNode {
	return annotated(&PlanNode{Kind: KindProject, Proj: idx, Children: []*PlanNode{p},
		Card: p.Card, Cost: p.Cost})
}

// SetOp roots two operand plans in the rank-aware set operator kind
// (KindUnion, KindIntersect or KindDiff; Figure 3). Each operand is built
// against its own Env. The node is not executed over the samples: its
// card is the operands' bound (∪ = l + r, ∩ = min(l, r), − = l, a
// fallback, see Estimator) and its cost the sum of theirs.
func SetOp(kind PlanKind, l *PlanNode, lenv *Env, r *PlanNode, renv *Env) *PlanNode {
	card := l.Card + r.Card
	switch kind {
	case KindIntersect:
		card = math.Min(l.Card, r.Card)
	case KindDiff:
		card = l.Card
	}
	p := annotated(&PlanNode{Kind: kind, Children: []*PlanNode{l, r}, Envs: []*Env{lenv, renv},
		Card: card, Cost: l.Cost + r.Cost})
	p.fallback = true
	return p
}

// annotated marks a node whose Card and Cost are set as final.
func annotated(p *PlanNode) *PlanNode {
	p.setEstimated()
	p.costDone = true
	return p
}
