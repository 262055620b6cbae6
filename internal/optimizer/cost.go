package optimizer

import (
	"math"
	"strings"
)

// CostParams are the abstract per-operation costs of the cost model. Units
// are arbitrary; only ratios matter. Predicate evaluation costs come from
// the predicates themselves (Predicate.Cost), the quantity the paper's
// Example 4 analysis and Figure 12(b) sweep are phrased in.
type CostParams struct {
	// SeqTuple / IdxTuple: producing one tuple from a sequential /
	// index scan (index scans pay pointer chasing).
	SeqTuple float64
	IdxTuple float64
	// Cmp: one Boolean predicate or comparison evaluation.
	Cmp float64
	// HashOp: one hash-table insert or probe.
	HashOp float64
	// QueueOp: one ranking-queue push or pop (per log2 element).
	QueueOp float64
	// SortCmp: one comparison inside a sort.
	SortCmp float64
	// PredUnit scales Predicate.Cost into cost units.
	PredUnit float64
}

// DefaultCostParams returns the default cost model.
func DefaultCostParams() CostParams {
	return CostParams{
		SeqTuple: 1.0,
		IdxTuple: 1.3,
		Cmp:      0.2,
		HashOp:   0.8,
		QueueOp:  0.3,
		SortCmp:  0.25,
		PredUnit: 1.0,
	}
}

// log2 of max(x,2), used for queue/sort factors.
func lg(x float64) float64 {
	if x < 2 {
		x = 2
	}
	return math.Log2(x)
}

// defaultSel is the selectivity assumed for a join condition without
// distinct counts to go on.
const defaultSel = 0.01

// joinSelectivity estimates the selectivity of an equi-join from distinct
// counts (1 / max(V(l), V(r)), the classic System-R formula); falls back
// to defaultSel for non-equi conditions.
func (d *decomposed) joinSelectivity(jc *joinCond) float64 {
	if jc.l == nil {
		return defaultSel
	}
	vl := d.distinctOf(jc.l.Table, jc.l.Name)
	vr := d.distinctOf(jc.r.Table, jc.r.Name)
	v := math.Max(vl, vr)
	if v < 1 {
		return defaultSel
	}
	return 1 / v
}

// nodeSelectivity is the selectivity of join node p: its equi key's, else
// that of the decomposed join conjunct its condition is, else defaultSel.
func (d *decomposed) nodeSelectivity(p *PlanNode) float64 {
	if p.LeftKey != nil {
		return d.joinSelectivity(&joinCond{l: p.LeftKey, r: p.RightKey})
	}
	for _, jc := range d.joins {
		if jc.cond == p.Cond {
			return d.joinSelectivity(jc)
		}
	}
	return defaultSel
}

func (d *decomposed) distinctOf(alias, col string) float64 {
	i, ok := d.tableIdx[strings.ToLower(alias)]
	if !ok {
		return 0
	}
	return float64(d.snaps[i].Distinct(col))
}

// costNode computes the node's own work plus its children's cumulative
// costs. Children must already carry Card and Cost annotations; the node
// must carry Card. The driving insight: with per-edge cardinalities
// estimated under the top-k cut (§5.2), every operator's work is a
// function of how many tuples actually flow, not of full input sizes.
func (o *optimizerState) costNode(p *PlanNode) float64 {
	cp := o.opts.Cost
	var own float64
	childCost := 0.0
	for _, c := range p.Children {
		childCost += c.Cost
	}
	in := func(i int) float64 { return p.Children[i].Card }

	switch p.Kind {
	case KindSeqScan:
		own = cp.SeqTuple * p.Card
	case KindRankScan:
		own = cp.IdxTuple * p.Card
		if p.Cond != nil {
			own += cp.Cmp * p.Card
		}
	case KindIdxScanCol:
		own = cp.IdxTuple * p.Card
		if p.Cond != nil {
			own += cp.Cmp * p.Card
		}
	case KindFilter:
		own = cp.Cmp * in(0)
	case KindRank:
		// Evaluate the predicate on every consumed tuple, plus ranking
		// queue maintenance.
		own = in(0)*p.Pred.Cost*cp.PredUnit + in(0)*cp.QueueOp*lg(in(0))
	case KindHRJN:
		pairs := o.pairEstimate(p)
		own = (in(0)+in(1))*cp.HashOp + pairs*cp.Cmp + pairs*cp.QueueOp*lg(pairs)
	case KindNRJN:
		// Every new tuple probes the opposite buffer: quadratic in the
		// consumed counts.
		probes := in(0) * in(1)
		pairs := o.pairEstimate(p)
		own = probes*cp.Cmp + pairs*cp.QueueOp*lg(pairs)
	case KindNestedLoop:
		own = in(0)*in(1)*cp.Cmp + in(1)*cp.SeqTuple // probe all pairs + materialize inner
	case KindHashJoin:
		pairs := o.pairEstimate(p)
		own = in(1)*cp.HashOp + in(0)*cp.HashOp + pairs*cp.Cmp
	case KindMergeJoin:
		pairs := o.pairEstimate(p)
		own = (in(0)+in(1))*cp.Cmp + pairs*cp.Cmp
	case KindSortScore:
		// Materialize, evaluate every predicate, sort. The optimizer
		// places τ_F only over SP = ∅ plans (finalize), so no predicate
		// has been evaluated below it.
		rem := 0.0
		for _, pr := range o.d.q.Spec.Preds {
			rem += pr.Cost * cp.PredUnit
		}
		n := in(0)
		own = n*rem + n*lg(n)*cp.SortCmp
	case KindSortColumn:
		n := in(0)
		own = n * lg(n) * cp.SortCmp
	case KindLimit:
		own = 0
	}
	return childCost + own
}

// pairEstimate approximates how many joined pairs a join materializes:
// the larger of the estimated output cardinality and the selectivity-based
// pair count over the consumed inputs.
func (o *optimizerState) pairEstimate(p *PlanNode) float64 {
	pairs := p.Children[0].Card * p.Children[1].Card * o.d.nodeSelectivity(p)
	return math.Max(pairs, p.Card)
}
