package optimizer

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"ranksql/internal/catalog"
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
//  1. takes every table's catalog Snapshot: a small deterministic sample,
//     drawn independently per table and indexed like it (sᵢ is its
//     Ratio), and the distinct counts the cost model reads. A snapshot
//     serves every compile until its table doubles (catalog.Snapshot), so
//     the samples age with the plans costed on them,
//  2. takes as x' the k″-th best score F over the cross product of the
//     filtered per-table samples, k″ = ⌈k · Π sᵢ / Π selⱼ⌉ over the tables
//     i and the join conjuncts j (selⱼ is joinSelectivity),
//  3. estimates the output cardinality of each candidate subplan P by
//     executing P on the samples (the operators the real plan runs, index
//     scans included), counting its outputs u with upper bound
//     ≥ x', and scaling (below). As in the paper, P's sample results are
//     kept together with P: each subplan's run (its operator and the
//     tuples it emitted) lives as long as P is a retained candidate, and
//     a plan built on P executes only its own new operator, over a replay
//     of P's run that pulls more from it only when read past its end. A
//     replay feeding µ or τ_F, the two operators that write a tuple's
//     ranking state, hands out copies; every other reader reads the kept
//     tuples in place. Each sample computation runs once: a nested loop
//     that emits exactly its hash join twin's tuples is scaled from the
//     twin's run, and a µ candidate reuses the estimate of the identical
//     rank-metric probe (see joinPair and rankPlans):
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
// its inputs' cards, so a zero would make everything above it free. Four
// fallbacks replace a count the sample cannot give, and EXPLAIN marks each
// node estimated by one est=fallback:
//   - a binary node with u = 0 gets the System-R floor
//     sel · card(P1) · card(P2), sel being the selectivity pairEstimate
//     uses: an empty sample join says only that fewer than one in
//     cards(P1)·cards(P2) pairs join;
//   - a unary node whose child emitted no sample tuples inherits card(P′):
//     nothing was observed to scale;
//   - u = 0 on a non-empty input counts as half a sampled tuple: none of m
//     sampled tuples passing says the share is below 1/m, not that it is 0;
//   - a set operation over two separately optimized operands (SetOp) is
//     never run on the samples: its card is the bound its operands' cards
//     give, l + r for ∪, min(l, r) for ∩ and l for −.
type Estimator struct {
	d   *decomposed
	env *Env
	// ctx is the one execution context every sample run pulls under.
	ctx *exec.Context
	// runs holds the sample run of every subplan still kept (see
	// sampleRun); release and Close drop them.
	runs map[*PlanNode]*sampleRun
	// XPrime is the estimated k-th result score (x'); -Inf when the
	// samples' cross product holds fewer than k″ tuples.
	XPrime float64
	// KPrime is the sample-scaled result count k″.
	KPrime int
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

// newEstimator takes every query table's snapshot and estimates x'.
func newEstimator(d *decomposed, opts Options) (*Estimator, error) {
	env := &Env{Tables: make(map[string]*catalog.TableMeta, len(d.q.Tables))}
	e := &Estimator{d: d, env: env, XPrime: math.Inf(-1),
		ctx: exec.NewContext(d.q.Spec), runs: map[*PlanNode]*sampleRun{}}

	// scale is Π sᵢ / Π selⱼ, the sampling ratio of the samples' cross
	// product as a sample of Q.
	scale := 1.0
	d.snaps = make([]*catalog.Snapshot, len(d.q.Tables))
	for i, tr := range d.q.Tables {
		s := d.metas[i].Snapshot(opts.SampleRatio, opts.MinSampleRows)
		d.snaps[i] = s
		env.Tables[strings.ToLower(tr.Alias)] = s.Sample
		scale *= s.Ratio
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
// annotation) and returns it. Children carry their estimates, and their
// sample runs, from when they were enumerated, mirroring the paper's
// "results are kept together with P": only p's own operator executes. A
// child estimated without a run of its own (a µ candidate that reused
// its rank-metric probe) gets one here, when it is first read. p's run is
// kept until release or Close.
func (e *Estimator) Estimate(p *PlanNode) (float64, error) {
	for _, c := range p.Children {
		if !c.estimated() {
			if _, err := e.Estimate(c); err != nil {
				return 0, err
			}
		}
	}
	r, err := e.newRun(p)
	if err != nil {
		return 0, err
	}

	// Pull until the output upper bound drops below x' (outputs of ranked
	// plans arrive in non-increasing upper-bound order; unranked plans
	// always emit at the ceiling, so they drain fully).
	u := 0
	for {
		t, err := r.at(u)
		if err != nil {
			return 0, err
		}
		if t == nil || t.Score < e.XPrime {
			break
		}
		u++
	}

	r.u = u
	if err := e.annotateFrom(p, r); err != nil {
		return 0, err
	}
	return p.Card, nil
}

// estimateTwin annotates p from twin's sample run instead of executing
// p's own operator. p must emit exactly the tuples twin emits over the
// same children, in the same order (joinPair's nested loop and its hash
// join twin), so u and the children's output counts are twin's; p is
// scaled by its own rule, so a fallback reads p's own selectivity.
func (e *Estimator) estimateTwin(p, twin *PlanNode) error {
	r := e.runs[twin]
	if r == nil {
		return errReleased
	}
	return e.annotateFrom(p, r)
}

// annotateFrom sets p's card and fallback flag from the run r of an
// operator that emits p's tuples.
func (e *Estimator) annotateFrom(p *PlanNode, r *sampleRun) error {
	card, fallback, err := e.scaleUp(p, r.op, r.u)
	if err != nil {
		return err
	}
	p.Card = card
	p.fallback = fallback
	p.setEstimated()
	return nil
}

// handOver makes from's sample run p's: p emits from's tuples and takes
// from's place as a candidate, so the run lives as long as p does.
func (e *Estimator) handOver(from, p *PlanNode) {
	e.runs[p] = e.runs[from]
	delete(e.runs, from)
}

// sampleRun is one subplan's execution over the samples: its operator,
// built and opened once over replays of its children's runs, and every
// tuple the operator has emitted so far. It is extended lazily: at pulls
// from the operator only when a reader asks past the end.
type sampleRun struct {
	op   exec.Operator // nil once released
	ctx  *exec.Context
	buf  []*schema.Tuple
	done bool
	// u is the count Estimate took of the leading outputs with upper
	// bound ≥ x'.
	u int
}

// errReleased reports a read of a run whose plan was already dropped: a
// plan was released while a kept plan still reads it.
var errReleased = errors.New("optimizer: sample run read after release")

// at returns the run's i-th output tuple, pulling the operator as far as
// needed, or nil when the run ends before i.
func (r *sampleRun) at(i int) (*schema.Tuple, error) {
	if r.op == nil {
		return nil, errReleased
	}
	for len(r.buf) <= i && !r.done {
		t, err := r.op.Next(r.ctx)
		if err != nil {
			return nil, err
		}
		if t == nil {
			r.done = true
			break
		}
		r.buf = append(r.buf, t)
	}
	if i < len(r.buf) {
		return r.buf[i], nil
	}
	return nil, nil
}

// newRun builds and opens p's operator over replays of its children's
// runs (starting a child's run if it has none) and keeps it as p's run.
// The run is always new, so the counts scaleUp reads off it are those of
// a fresh execution of p. Only µ and τ_F write the ranking state of the
// tuples they read, so only their replays hand out copies.
func (e *Estimator) newRun(p *PlanNode) (*sampleRun, error) {
	writes := p.Kind == KindRank || p.Kind == KindSortScore
	kids := make([]exec.Operator, len(p.Children))
	for i, c := range p.Children {
		cr := e.runs[c]
		if cr == nil {
			var err error
			if cr, err = e.newRun(c); err != nil {
				return nil, err
			}
		}
		kids[i] = &replay{run: cr, sch: cr.op.Schema(), ev: cr.op.Evaluated(), copy: writes}
	}
	op, err := p.Operator(e.env, kids...)
	if err != nil {
		return nil, err
	}
	if err := op.Open(e.ctx); err != nil {
		return nil, err
	}
	r := &sampleRun{op: op, ctx: e.ctx}
	e.runs[p] = r
	return r, nil
}

// release drops p's sample run, if it has one. Plans built on p must be
// released first.
func (e *Estimator) release(p *PlanNode) {
	if r := e.runs[p]; r != nil {
		r.op.Close()
		r.op, r.buf = nil, nil
		delete(e.runs, p)
	}
}

// Close drops every sample run; estimates already made stay on their
// plans. Optimize closes its Estimator before returning.
func (e *Estimator) Close() {
	for p := range e.runs {
		e.release(p)
	}
}

// replay reads a sampleRun from its first tuple as the input of one
// operator. µ and τ_F write a tuple's ranking state (Preds, Evaluated,
// Score) in place, so a replay feeding one of them (copy) hands out its
// own copy of that state, sharing Values and TIDs; every other operator
// only reads its inputs' tuples and gets the kept tuples themselves.
// OutCount counts this replay's tuples only, which is what the child of a
// fresh execution would report.
type replay struct {
	run  *sampleRun
	sch  *schema.Schema
	ev   schema.Bitset
	pos  int
	copy bool
}

func (r *replay) Open(*exec.Context) error { r.pos = 0; return nil }

func (r *replay) Next(*exec.Context) (*schema.Tuple, error) {
	t, err := r.run.at(r.pos)
	if t == nil || err != nil {
		return nil, err
	}
	r.pos++
	if !r.copy {
		return t, nil
	}
	c := *t
	c.Preds = append([]float64(nil), t.Preds...)
	return &c, nil
}

func (r *replay) Close() error              { return nil }
func (r *replay) Schema() *schema.Schema    { return r.sch }
func (r *replay) Evaluated() schema.Bitset  { return r.ev }
func (r *replay) Name() string              { return "replay" }
func (r *replay) Children() []exec.Operator { return nil }
func (r *replay) OutCount() int64           { return int64(r.pos) }

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
		i, ok := e.d.tableIdx[strings.ToLower(p.Alias)]
		if !ok {
			return 0, false, fmt.Errorf("optimizer: unknown alias %q", p.Alias)
		}
		s := e.d.snaps[i]
		ratio := s.Ratio
		if ratio <= 0 {
			ratio = 1
		}
		if u == 0 && s.Sample.Table.NumRows() > 0 {
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
