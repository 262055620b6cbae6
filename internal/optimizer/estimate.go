package optimizer

import (
	"fmt"
	"math"
	"strings"

	"ranksql/internal/exec"
	"ranksql/internal/expr"
)

// Estimator implements the sampling-based cardinality estimation of §5.2.
//
// Let x be the score of the k-th query result. Tuples whose upper bound is
// below x never need to leave an operator, so an operator's output
// cardinality is the number of tuples it produces with upper bound ≥ x.
// x is unknown during enumeration, so the estimator:
//
//  1. draws a small deterministic sample of every table (catalog samples),
//  2. runs the original query on the samples with a conventional plan and
//     takes the score x' of the k'-th result, k' = ⌈k·s%⌉, as an estimate
//     of x,
//  3. estimates the output cardinality of each candidate subplan P by
//     executing P on the samples, counting its outputs u with upper bound
//     ≥ x', and scaling with the paper's rules:
//     scan:   card(P) = u / s%
//     unary:  card(P) = u · card(P′)/cards(P′)
//     binary: card(P) = u · (card(P1)/cards(P1) + card(P2)/cards(P2)) / 2
//     where cards(·) is the child's output count observed during the
//     sample execution and card(·) its previously estimated cardinality.
type Estimator struct {
	d   *decomposed
	env *Env
	// XPrime is the estimated k-th result score (x'); -Inf when the
	// sample run produced fewer than k' results.
	XPrime float64
	// KPrime is the sample-scaled result count k'.
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

	// Build the samples now so ratios are known.
	minRatio := 1.0
	for i := range d.q.Tables {
		tm := d.metas[i]
		tm.EnsureSample(opts.SampleRatio, opts.MinSampleRows)
		if tm.SampleRatio < minRatio {
			minRatio = tm.SampleRatio
		}
	}

	// k' = ceil(k * s%): transform the top-k query into a top-k' query on
	// the samples.
	k := d.q.K
	if k <= 0 {
		e.KPrime = 0
		return e, nil // no LIMIT: x stays -Inf, estimates are full sizes
	}
	e.KPrime = int(math.Ceil(float64(k) * minRatio))
	if e.KPrime < 1 {
		e.KPrime = 1
	}

	x, err := e.estimateXPrime()
	if err != nil {
		return nil, err
	}
	e.XPrime = x
	return e, nil
}

// canonicalPlan builds the naive evaluation plan used to estimate x' on the
// samples: filtered sequential scans, a nested-loops join chain carrying
// every applicable condition, and a full sort.
func (e *Estimator) canonicalPlan() *PlanNode {
	d := e.d
	var root *PlanNode
	placed := map[*joinCond]bool{}
	var sr tableSet
	for i, tr := range d.q.Tables {
		var leaf *PlanNode = &PlanNode{Kind: KindSeqScan, Alias: tr.Alias}
		for _, c := range d.sel[i] {
			leaf = &PlanNode{Kind: KindFilter, Cond: c, Children: []*PlanNode{leaf}}
		}
		if root == nil {
			root = leaf
			sr = sr.With(i)
			continue
		}
		sr = sr.With(i)
		// Attach every join condition that becomes fully evaluable.
		var conds []expr.Expr
		aliases := d.aliasesOf(sr)
		for _, jc := range d.joins {
			if placed[jc] {
				continue
			}
			all := true
			for t := range jc.tables {
				if !aliases[t] {
					all = false
					break
				}
			}
			if all {
				placed[jc] = true
				conds = append(conds, jc.cond)
			}
		}
		root = &PlanNode{
			Kind:     KindNestedLoop,
			Cond:     expr.And(conds...),
			Children: []*PlanNode{root, leaf},
		}
	}
	return &PlanNode{Kind: KindSortScore, Children: []*PlanNode{root}}
}

// estimateXPrime runs the canonical plan on the samples and returns the
// k'-th result score, or -Inf if fewer results exist.
func (e *Estimator) estimateXPrime() (float64, error) {
	plan := e.canonicalPlan()
	op, err := plan.Build(e.env)
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

	card, err := e.scaleUp(p, op, u)
	if err != nil {
		return 0, err
	}
	p.Card = card
	p.setEstimated()
	return card, nil
}

// scaleUp applies the paper's scan/unary/binary scaling rules.
func (e *Estimator) scaleUp(p *PlanNode, op exec.Operator, u int) (float64, error) {
	kids := op.Children()
	switch len(kids) {
	case 0:
		// Scan rule: card = u / s%.
		alias := strings.ToLower(p.Alias)
		name, ok := e.env.Aliases[alias]
		if !ok {
			return float64(u), nil // static source in tests
		}
		tm, err := e.d.q.Catalog.Table(name)
		if err != nil {
			return 0, err
		}
		ratio := tm.SampleRatio
		if ratio <= 0 {
			ratio = 1
		}
		return float64(u) / ratio, nil
	case 1:
		r := ratioOf(p.child(0), kids[0])
		return float64(u) * r, nil
	case 2:
		r1 := ratioOf(p.child(0), kids[0])
		r2 := ratioOf(p.child(1), kids[1])
		return float64(u) * (r1 + r2) / 2, nil
	default:
		return 0, fmt.Errorf("optimizer: operator with %d children", len(kids))
	}
}

// ratioOf is card(P')/cards(P') with a guard for empty sample streams.
func ratioOf(child *PlanNode, op exec.Operator) float64 {
	sampleOut := float64(op.OutCount())
	if sampleOut == 0 {
		// The child produced nothing during this run (e.g. the parent
		// emitted straight from its queue); fall back to a neutral
		// scale so u=0 still yields 0 and u>0 keeps a sane magnitude.
		if child.Card > 0 {
			return child.Card
		}
		return 1
	}
	return child.Card / sampleOut
}

// estimated/setEstimated track per-node annotation state.
func (p *PlanNode) estimated() bool { return p.estDone }
func (p *PlanNode) setEstimated()   { p.estDone = true }
