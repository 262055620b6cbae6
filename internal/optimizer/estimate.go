package optimizer

import (
	"fmt"
	"math"
	"strings"

	"ranksql/internal/exec"
	"ranksql/internal/expr"
	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// Estimator implements the sampling-based cardinality estimation of §5.2.
//
// Let x be the score of the k-th query result. Tuples whose upper bound is
// below x never need to leave an operator, so an operator's output
// cardinality is the number of tuples it produces with upper bound ≥ x.
// x is unknown during enumeration, so the estimator:
//
//  1. draws a small deterministic sample of every table, independently per
//     table (catalog samples; sᵢ is table i's SampleRatio),
//  2. takes as x' the k″-th best score F over the cross product of the
//     filtered per-table samples, k″ = ⌈k · Π sᵢ / Π selⱼ⌉ over the tables
//     i and the join conjuncts j (selⱼ is joinSelectivity),
//  3. estimates the output cardinality of each candidate subplan P by
//     executing P on the samples, counting its outputs u with upper bound
//     ≥ x', and scaling:
//     scan:   card(P) = u / sᵢ
//     unary:  card(P) = u · card(P′)/cards(P′)
//     binary: card(P) = u · card(P1)/cards(P1) · card(P2)/cards(P2)
//     where cards(·) is the child's output count observed during the
//     sample execution and card(·) its previously estimated cardinality.
//
// Step 2 deviates from the paper, which runs Q itself on the samples and
// takes its ⌈k·s⌉-th result. Independent samples of joined tables rarely
// join: on the §6 database (0.1 % samples, 100-row floor) the A⨝B⨝C sample
// join is empty, which left x' at −∞. Under System-R's independence
// assumption, the one joinSelectivity already makes (join keys independent
// of each other and of the scores), Q's results are a Π selⱼ share of the
// cross product drawn at random, so the cross product of the samples is a
// sample of Q at ratio Π sᵢ / Π selⱼ. With no joins, k″ = ⌈k·s⌉ as in the
// paper. The top k″ comes from a ranked plan over the samples (see
// xPrimePlan), so only as much of the cross product is formed as the top
// k″ needs.
//
// The binary rule deviates from the paper's u·(r₁+r₂)/2 for the same
// reason: averaging is right only for samples correlated on the join key,
// where a sampled pair stands for r real tuples. With independent samples
// each sampled pair stands for r₁·r₂ real pairs.
//
// No estimate of a non-empty input is zero: costNode prices an operator by
// its inputs' cards, so a zero would make everything above it free. Three
// fallbacks replace a count the sample cannot give, and EXPLAIN marks each
// node estimated by one est=fallback:
//   - a binary node with u = 0 gets the System-R floor
//     sel · card(P1) · card(P2), sel being the selectivity pairEstimate
//     uses: an empty sample join says only that fewer than one in
//     cards(P1)·cards(P2) pairs join;
//   - a unary node whose child emitted no sample tuples inherits card(P′):
//     nothing was observed to scale;
//   - u = 0 on a non-empty input counts as half a sampled tuple: none of m
//     sampled tuples passing says the share is below 1/m, not that it is 0.
type Estimator struct {
	d   *decomposed
	env *Env
	// XPrime is the estimated k-th result score (x'); -Inf when the
	// samples' cross product holds fewer than k″ tuples.
	XPrime float64
	// KPrime is the sample-scaled result count k″.
	KPrime int
	// Runs counts subplan sample executions (exposed for tests and for
	// measuring optimization overhead).
	Runs int
}

// NewEstimatorForQuery exposes the §5.2 estimator for externally-built
// plans (internal/paper estimates the hand-built Figure 11 plans to
// reproduce Figure 13).
func NewEstimatorForQuery(q *Query, opts Options) (*Estimator, error) {
	d, err := decompose(q)
	if err != nil {
		return nil, err
	}
	return newEstimator(d, opts)
}

// newEstimator builds samples for every query table and estimates x'.
func newEstimator(d *decomposed, opts Options) (*Estimator, error) {
	env := &Env{
		Catalog:       d.q.Catalog,
		Aliases:       map[string]string{},
		UseSample:     true,
		SampleRatio:   opts.SampleRatio,
		MinSampleRows: opts.MinSampleRows,
	}
	for _, tr := range d.q.Tables {
		env.Aliases[strings.ToLower(tr.Alias)] = tr.Name
	}
	e := &Estimator{d: d, env: env, XPrime: math.Inf(-1)}

	// Build the samples now so ratios are known; scale is Π sᵢ / Π selⱼ,
	// the sampling ratio of the samples' cross product as a sample of Q.
	scale := 1.0
	for i := range d.q.Tables {
		tm := d.metas[i]
		tm.EnsureSample(opts.SampleRatio, opts.MinSampleRows)
		scale *= tm.SampleRatio
	}
	for _, jc := range d.joins {
		scale /= d.joinSelectivity(jc)
	}

	// k″ = ⌈k · Π sᵢ / Π selⱼ⌉: transform the top-k query into a top-k″
	// query on the samples' cross product.
	k := d.q.K
	if k <= 0 {
		e.KPrime = 0
		return e, nil // no LIMIT: x stays -Inf, estimates are full sizes
	}
	e.KPrime = max(1, int(math.Ceil(float64(k)*scale)))

	x, err := e.estimateXPrime()
	if err != nil {
		return nil, err
	}
	e.XPrime = x
	return e, nil
}

// xPrimePlan is the ranked plan whose outputs are the samples' cross
// product, best F first: each table's filtered sample ranked by µ for
// every predicate it evaluates alone, the tables joined left-deep by NRJN
// on a constant-true condition, and µ for each multi-table predicate once
// its tables are joined. Every node streams in non-increasing upper-bound
// order, so pulling k″ outputs forms only the combined tuples that can
// still reach the top k″; nothing but F's monotonicity is assumed.
func (e *Estimator) xPrimePlan() *PlanNode {
	d := e.d
	var done schema.Bitset
	rankBy := func(p *PlanNode, sr tableSet) *PlanNode {
		preds := d.evaluablePreds(sr).Diff(done)
		preds.Each(func(i int) {
			p = &PlanNode{Kind: KindRank, Pred: d.q.Spec.Preds[i], Children: []*PlanNode{p}}
		})
		done = done.Union(preds)
		return p
	}
	var root *PlanNode
	var sr tableSet
	for i, tr := range d.q.Tables {
		leaf := &PlanNode{Kind: KindSeqScan, Alias: tr.Alias}
		for _, c := range d.sel[i] {
			leaf = &PlanNode{Kind: KindFilter, Cond: c, Children: []*PlanNode{leaf}}
		}
		leaf = rankBy(leaf, tableSet(0).With(i))
		sr = sr.With(i)
		if root == nil {
			root = leaf
			continue
		}
		root = &PlanNode{Kind: KindNRJN, Cond: expr.NewConst(types.NewBool(true)),
			Children: []*PlanNode{root, leaf}}
		root = rankBy(root, sr)
	}
	return root
}

// estimateXPrime runs the x' plan on the samples and returns the k″-th
// result score, or -Inf if fewer results exist.
func (e *Estimator) estimateXPrime() (float64, error) {
	op, err := e.xPrimePlan().Build(e.env)
	if err != nil {
		return 0, err
	}
	ctx := exec.NewContext(e.d.q.Spec)
	if err := op.Open(ctx); err != nil {
		return 0, err
	}
	defer op.Close()
	var score float64
	for i := 0; i < e.KPrime; i++ {
		t, err := op.Next(ctx)
		if err != nil {
			return 0, err
		}
		if t == nil {
			return math.Inf(-1), nil
		}
		score = t.Score
	}
	return score, nil
}

// Estimate annotates p.Card (recursively estimating children that lack an
// annotation) and returns it. Children carry their estimates from when
// they were enumerated, mirroring the paper's "results are kept together
// with P".
func (e *Estimator) Estimate(p *PlanNode) (float64, error) {
	for _, c := range p.Children {
		if !c.estimated() {
			if _, err := e.Estimate(c); err != nil {
				return 0, err
			}
		}
	}
	op, err := p.Build(e.env)
	if err != nil {
		return 0, err
	}
	ctx := exec.NewContext(e.d.q.Spec)
	if err := op.Open(ctx); err != nil {
		return 0, err
	}
	defer op.Close()
	e.Runs++

	// Pull until the output upper bound drops below x' (outputs of ranked
	// plans arrive in non-increasing upper-bound order; unranked plans
	// always emit at the ceiling, so they drain fully).
	u := 0
	for {
		t, err := op.Next(ctx)
		if err != nil {
			return 0, err
		}
		if t == nil {
			break
		}
		if t.Score < e.XPrime {
			break
		}
		u++
	}

	card, fallback, err := e.scaleUp(p, op, u)
	if err != nil {
		return 0, err
	}
	p.Card = card
	p.fallback = fallback
	p.setEstimated()
	return card, nil
}

// halfTuple stands in for u = 0 on a non-empty input (see Estimator).
const halfTuple = 0.5

// scaleUp applies the scan/unary/binary scaling rules, or the fallback
// that replaces one where the sample observed nothing; fallback reports
// which.
func (e *Estimator) scaleUp(p *PlanNode, op exec.Operator, u int) (card float64, fallback bool, err error) {
	kids := op.Children()
	switch len(kids) {
	case 0:
		// Scan rule: card = u / sᵢ.
		sample, tm, err := e.env.tableFor(p.Alias)
		if err != nil {
			return 0, false, err
		}
		ratio := tm.SampleRatio
		if ratio <= 0 {
			ratio = 1
		}
		if u == 0 && sample.NumRows() > 0 {
			return halfTuple / ratio, true, nil
		}
		return float64(u) / ratio, false, nil
	case 1:
		if kids[0].OutCount() == 0 {
			return p.child(0).Card, true, nil
		}
		r := ratioOf(p.child(0), kids[0])
		if u == 0 {
			return halfTuple * r, true, nil
		}
		return float64(u) * r, false, nil
	case 2:
		if u == 0 {
			sel := e.d.nodeSelectivity(p)
			return sel * p.child(0).Card * p.child(1).Card, true, nil
		}
		// u > 0: both children emitted sample tuples.
		return float64(u) * ratioOf(p.child(0), kids[0]) * ratioOf(p.child(1), kids[1]), false, nil
	default:
		return 0, false, fmt.Errorf("optimizer: operator with %d children", len(kids))
	}
}

// ratioOf is card(P′)/cards(P′): how many real tuples each tuple the child
// emitted during the sample run stands for. The child must have emitted
// at least one.
func ratioOf(child *PlanNode, op exec.Operator) float64 {
	return child.Card / float64(op.OutCount())
}

// estimated/setEstimated track per-node annotation state.
func (p *PlanNode) estimated() bool { return p.estDone }
func (p *PlanNode) setEstimated()   { p.estDone = true }
