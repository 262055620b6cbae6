package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ranksql/internal/catalog"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
)

// Options configure the optimizer.
type Options struct {
	// Cost is the cost model.
	Cost CostParams
	// SampleRatio / MinSampleRows configure the §5.2 estimator's samples:
	// about SampleRatio of each table's rows, at least MinSampleRows. A
	// change redraws each table's snapshot at its next compile.
	SampleRatio   float64
	MinSampleRows int
	// LeftDeepOnly restricts join enumeration to left-deep trees
	// (Figure 10 line 2).
	LeftDeepOnly bool
	// RankHeuristic enables the greedy rank-metric scheduling of µ
	// operators (Figure 10 lines 4-6): µ_pu extends a subplan only when
	// no other applicable µ_pv has a strictly higher rank.
	RankHeuristic bool
	// NoRankOperators disables the ranking dimension entirely: the
	// optimizer enumerates only SP=∅ plans and ranks with a final sort —
	// a traditional optimizer, used as the baseline.
	NoRankOperators bool
}

// DefaultOptions returns the standard configuration (heuristics on,
// 0.1% samples with a 100-row floor, as in §6.2).
func DefaultOptions() Options {
	return Options{
		Cost:          DefaultCostParams(),
		SampleRatio:   0.001,
		MinSampleRows: 100,
		LeftDeepOnly:  true,
		RankHeuristic: true,
	}
}

// sig is a subplan signature: the pair of logical properties (SR, SP) of
// §5.1. Subplans with the same signature produce the same rank-relation.
type sig struct {
	sr tableSet
	sp schema.Bitset
}

// candidate is one retained plan for a signature, distinguished by its
// physical property.
type candidate struct {
	plan *PlanNode
	// prop is the physical property key: "" for no order; "sort:alias.col"
	// for an ascending column order (interesting order, only possible for
	// SP=∅ plans, cf. §5.1).
	prop string
}

// optimizerState carries the DP tables.
type optimizerState struct {
	d    *decomposed
	opts Options
	est  *Estimator
	best map[sig][]*candidate

	// Enumeration statistics.
	Generated int
	Kept      int

	rankMemo map[*PlanNode]map[int]rankProbe
}

// rankProbe is one memoized rank-metric probe µ_p(base): its rank and
// the estimate it was computed from, which the µ_p(base) candidate
// reuses.
type rankProbe struct {
	metric   float64
	card     float64
	fallback bool
}

// Result is the outcome of optimization.
type Result struct {
	// Plan is the chosen physical plan, including the top LIMIT.
	Plan *PlanNode
	// Env builds the plan against the real tables.
	Env *Env
	// Snapshots are the table snapshots the plan was costed on, in query
	// table order; the plan is stale once one of them is not Current.
	Snapshots []*catalog.Snapshot
	// Estimator exposes x' and k″.
	Estimator *Estimator
	// Generated / Kept count enumerated and retained candidate plans.
	Generated int
	Kept      int
}

// Optimize runs two-dimensional dynamic-programming enumeration over the
// query and returns the cheapest plan.
func Optimize(q *Query, opts Options) (*Result, error) {
	d, err := decompose(q)
	if err != nil {
		return nil, err
	}
	est, err := newEstimator(d, opts)
	if err != nil {
		return nil, err
	}
	defer est.Close()
	o := newOptimizerState(d, opts, est)
	if err := o.enumerate(); err != nil {
		return nil, err
	}
	plan, err := o.finalize()
	if err != nil {
		return nil, err
	}
	env := &Env{Tables: make(map[string]*catalog.TableMeta, len(q.Tables))}
	for i, tr := range q.Tables {
		env.Tables[strings.ToLower(tr.Alias)] = d.metas[i]
	}
	return &Result{
		Plan:      plan,
		Env:       env,
		Snapshots: d.snaps,
		Estimator: est,
		Generated: o.Generated,
		Kept:      o.Kept,
	}, nil
}

// newOptimizerState returns empty DP tables for d, costed by est.
func newOptimizerState(d *decomposed, opts Options, est *Estimator) *optimizerState {
	return &optimizerState{d: d, opts: opts, est: est,
		best: map[sig][]*candidate{}, rankMemo: map[*PlanNode]map[int]rankProbe{}}
}

// annotate estimates the plan's cardinality, unless it already carries
// an estimate, and computes its cumulative cost. Children normally carry
// annotations from their own enumeration step; nodes injected as part of
// a composite (sorts under a merge join) are annotated recursively first.
func (o *optimizerState) annotate(p *PlanNode) error {
	for _, c := range p.Children {
		if !c.costDone {
			if err := o.annotate(c); err != nil {
				return err
			}
		}
	}
	if !p.estimated() {
		if _, err := o.est.Estimate(p); err != nil {
			return err
		}
	}
	p.Cost = o.costNode(p)
	p.costDone = true
	return nil
}

// addCandidate prunes within a signature: for each physical property, only
// the cheapest plan survives (the principle of optimality over the dual
// logical properties, plus interesting orders). The plan that loses
// releases its sample run at once: a signature's candidates are final
// before any plan is built on them, so nothing reads it any more.
func (o *optimizerState) addCandidate(s sig, plan *PlanNode, prop string) {
	o.Generated++
	list := o.best[s]
	for i, c := range list {
		if c.prop == prop {
			if plan.Cost < c.plan.Cost {
				o.release(c.plan)
				list[i] = &candidate{plan: plan, prop: prop}
			} else {
				o.release(plan)
			}
			return
		}
	}
	o.best[s] = append(list, &candidate{plan: plan, prop: prop})
	o.Kept++
}

// release drops the sample runs of a plan that is no candidate: its own
// and those of the sortCol nodes injected under it, which are never
// candidates themselves.
func (o *optimizerState) release(p *PlanNode) {
	o.est.release(p)
	for _, c := range p.Children {
		if c.Kind == KindSortColumn {
			o.est.release(c)
		}
	}
}

// candidates returns the retained plans for a signature.
func (o *optimizerState) candidates(s sig) []*candidate { return o.best[s] }

// enumerate fills the DP table, Figure 8 (with Figure 10 heuristics).
func (o *optimizerState) enumerate() error {
	h := len(o.d.q.Tables)
	// All non-empty SR masks ordered by size (the first dimension).
	masks := make([]tableSet, 0, 1<<uint(h)-1)
	for m := tableSet(1); m < tableSet(1)<<uint(h); m++ {
		masks = append(masks, m)
	}
	sort.Slice(masks, func(i, j int) bool {
		if masks[i].Count() != masks[j].Count() {
			return masks[i].Count() < masks[j].Count()
		}
		return masks[i] < masks[j]
	})

	for _, sr := range masks {
		if sr.Count() == 1 {
			if err := o.scanPlans(sr); err != nil {
				return err
			}
		}
		// The second dimension: ranking predicate subsets, by size.
		univ := o.d.evaluablePreds(sr)
		if o.opts.NoRankOperators {
			univ = 0
		}
		subsets := subsetsBySize(univ)
		for _, sp := range subsets {
			s := sig{sr: sr, sp: sp}
			// joinPlan: partitions with SR2 ≠ ∅.
			if sr.Count() > 1 {
				if err := o.joinPlans(s); err != nil {
					return err
				}
			}
			// rankPlan: SR2 = ∅, SP2 = {p}.
			if sp != 0 {
				if err := o.rankPlans(s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// subsetsBySize lists every subset of univ ordered by population count
// (so (SR, SP−{p}) precedes (SR, SP)).
func subsetsBySize(univ schema.Bitset) []schema.Bitset {
	out := []schema.Bitset{0}
	for sub := (univ - 1) & univ; ; sub = (sub - 1) & univ {
		if sub != 0 {
			out = append(out, sub)
		}
		if sub == 0 {
			break
		}
	}
	out = append(out, univ)
	// Deduplicate (univ may equal 0 or appear twice) and sort by size.
	seen := map[schema.Bitset]bool{}
	uniq := out[:0]
	for _, s := range out {
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	sort.Slice(uniq, func(i, j int) bool {
		if uniq[i].Count() != uniq[j].Count() {
			return uniq[i].Count() < uniq[j].Count()
		}
		return uniq[i] < uniq[j]
	})
	return uniq
}

// scanPlans generates the access paths for a single table: sequential scan
// (SP = ∅), column index scans delivering interesting orders (SP = ∅),
// and rank-scans (SP = {p}) when a rank index matches a predicate.
// Single-table selection conjuncts are applied on top (filter pushdown).
func (o *optimizerState) scanPlans(sr tableSet) error {
	ti := sr.Indices()[0]
	tr := o.d.q.Tables[ti]
	tm := o.d.metas[ti]

	withFilters := func(n *PlanNode) *PlanNode {
		for _, c := range o.d.sel[ti] {
			n = &PlanNode{Kind: KindFilter, Cond: c, Children: []*PlanNode{n}}
		}
		return n
	}

	// Sequential scan.
	seq := &PlanNode{Kind: KindSeqScan, Alias: tr.Alias}
	plan := withFilters(seq)
	if err := o.annotate(plan); err != nil {
		return err
	}
	o.addCandidate(sig{sr: sr, sp: 0}, plan, "")

	// Column index scans for interesting orders: only columns that appear
	// as equi-join keys are interesting (§5.1 / Selinger).
	for _, jc := range o.d.joins {
		if jc.l == nil {
			continue
		}
		for _, key := range []*expr.Col{jc.l, jc.r} {
			if !strings.EqualFold(key.Table, tr.Alias) {
				continue
			}
			if tm.Index(key.Name) == nil {
				continue
			}
			idx := &PlanNode{Kind: KindIdxScanCol, Alias: tr.Alias,
				SortTable: key.Table, SortCol: key.Name}
			p := withFilters(idx)
			if err := o.annotate(p); err != nil {
				return err
			}
			o.addCandidate(sig{sr: sr, sp: 0}, p, propSorted(key))
		}
	}

	if o.opts.NoRankOperators {
		return nil
	}

	// Rank-scans: SP = {p} for predicates on this table with an index.
	univ := o.d.evaluablePreds(sr)
	var err error
	univ.Each(func(pi int) {
		if err != nil {
			return
		}
		pred := o.d.q.Spec.Preds[pi]
		if rankIndexFor(tm, pred) == nil {
			return
		}
		rs := &PlanNode{Kind: KindRankScan, Alias: tr.Alias, Pred: pred}
		p := withFilters(rs)
		if e := o.annotate(p); e != nil {
			err = e
			return
		}
		o.addCandidate(sig{sr: sr, sp: schema.Bit(pi)}, p, "")
	})
	return err
}

// propSorted is the physical property key for an ascending column order.
func propSorted(c *expr.Col) string {
	return "sort:" + strings.ToLower(c.Table+"."+c.Name)
}

// joinPlans builds plans for signature s by joining two smaller signatures
// (Figure 8 line 13).
func (o *optimizerState) joinPlans(s sig) error {
	all := schema.AllBits(len(o.d.q.Tables))
	for sr1 := (s.sr - 1) & s.sr; sr1 != 0; sr1 = (sr1 - 1) & s.sr {
		sr2 := s.sr.Diff(sr1)
		if sr2 == 0 {
			continue
		}
		if o.opts.LeftDeepOnly && sr2.Count() > 1 {
			continue
		}
		conds := o.d.connectingJoins(sr1, sr2)
		if len(conds) == 0 && o.d.isConnected(all) {
			// Selinger's rule: when the query's join graph is connected,
			// some join order needs no Cartesian product, so none is built.
			continue
		}
		// Partition SP into halves evaluable on each side.
		u1 := o.d.evaluablePreds(sr1)
		u2 := o.d.evaluablePreds(sr2)
		for sp1 := s.sp; ; sp1 = (sp1 - 1) & s.sp {
			sp2 := s.sp.Diff(sp1)
			if sp1.SubsetOf(u1) && sp2.SubsetOf(u2) {
				if err := o.joinPair(s, sr1, sp1, sr2, sp2, conds); err != nil {
					return err
				}
			}
			if sp1 == 0 {
				break
			}
		}
	}
	return nil
}

// joinPair combines candidates of (SR1,SP1) and (SR2,SP2) with every
// applicable join algorithm. Over an equi-keyed classic pair, the nested
// loop is priced on its hash join twin's sample run, not executed.
func (o *optimizerState) joinPair(s sig, sr1 tableSet, sp1 schema.Bitset, sr2 tableSet, sp2 schema.Bitset, conds []*joinCond) error {
	c1s := o.candidates(sig{sr: sr1, sp: sp1})
	c2s := o.candidates(sig{sr: sr2, sp: sp2})
	if len(c1s) == 0 || len(c2s) == 0 {
		return nil
	}
	// Pick the first equi condition as the physical key; the rest become
	// a residual conjunction.
	var equi *joinCond
	var residual []expr.Expr
	for _, jc := range conds {
		if equi == nil && jc.l != nil {
			equi = jc
			continue
		}
		residual = append(residual, jc.cond)
	}
	resCond := expr.And(residual...)
	if len(residual) == 0 {
		resCond = nil
	}
	allCond := expr.Expr(nil)
	{
		var all []expr.Expr
		for _, jc := range conds {
			all = append(all, jc.cond)
		}
		if len(all) > 0 {
			allCond = expr.And(all...)
		}
	}
	add := func(p *PlanNode, prop string) error {
		if err := o.annotate(p); err != nil {
			return err
		}
		o.addCandidate(s, p, prop)
		return nil
	}

	// Orient the equi key with the plan sides.
	var lk, rk *expr.Col
	if equi != nil {
		lk, rk = equi.l, equi.r
		if !sideOf(lk, o.d.aliasesOf(sr1)) {
			lk, rk = rk, lk
		}
	}

	for _, c1 := range c1s {
		for _, c2 := range c2s {
			if sp1 == 0 && sp2 == 0 {
				// Classic joins: inputs unranked.
				nl := &PlanNode{Kind: KindNestedLoop, Cond: allCond,
					Children: []*PlanNode{c1.plan, c2.plan}}
				if equi == nil {
					if err := add(nl, ""); err != nil {
						return err
					}
				} else {
					hj := &PlanNode{Kind: KindHashJoin, LeftKey: lk, RightKey: rk,
						Cond: resCond, Children: []*PlanNode{c1.plan, c2.plan}}
					if err := o.annotate(hj); err != nil {
						return err
					}
					// The nested loop on lk = rk ∧ resCond emits exactly
					// the hash join's tuples in the same order: both
					// bucket the whole right input in arrival order and
					// walk it once per left tuple, and a NULL key joins
					// nothing in either. So it is priced on the hash
					// join's sample run, not executed, and only the
					// cheaper of the two is offered to addCandidate (the
					// hash join on a tie, as it was offered first). Both
					// count as generated.
					if err := o.est.estimateTwin(nl, hj); err != nil {
						return err
					}
					nl.Cost = o.costNode(nl)
					nl.costDone = true
					o.Generated++
					if nl.Cost < hj.Cost {
						o.est.handOver(hj, nl)
						o.addCandidate(s, nl, "")
					} else {
						o.addCandidate(s, hj, "")
					}
					// Sort-merge join: use existing interesting orders or
					// inject sorts.
					l := c1.plan
					if c1.prop != propSorted(lk) {
						l = &PlanNode{Kind: KindSortColumn, SortTable: lk.Table,
							SortCol: lk.Name, Children: []*PlanNode{l}}
					}
					r := c2.plan
					if c2.prop != propSorted(rk) {
						r = &PlanNode{Kind: KindSortColumn, SortTable: rk.Table,
							SortCol: rk.Name, Children: []*PlanNode{r}}
					}
					// A merge join's output stays sorted on the join key —
					// an interesting order for joins further up.
					mj := &PlanNode{Kind: KindMergeJoin, LeftKey: lk, RightKey: rk,
						Cond: resCond, Children: []*PlanNode{l, r}}
					if err := add(mj, propSorted(lk)); err != nil {
						return err
					}
				}
			}
			if o.opts.NoRankOperators {
				continue
			}
			if sp1 != 0 || sp2 != 0 {
				// Rank joins: at least one ranked input.
				if equi != nil {
					hr := &PlanNode{Kind: KindHRJN, LeftKey: lk, RightKey: rk,
						Cond: resCond, Children: []*PlanNode{c1.plan, c2.plan}}
					if err := add(hr, ""); err != nil {
						return err
					}
				} else if allCond != nil {
					nr := &PlanNode{Kind: KindNRJN, Cond: allCond,
						Children: []*PlanNode{c1.plan, c2.plan}}
					if err := add(nr, ""); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// rankPlans builds plans for signature s by appending one µ operator to
// (SR, SP−{p}) (Figure 8 line 15), subject to the greedy rank-metric
// heuristic (Figure 10).
func (o *optimizerState) rankPlans(s sig) error {
	univ := o.d.evaluablePreds(s.sr)
	var outerErr error
	s.sp.Each(func(pi int) {
		if outerErr != nil {
			return
		}
		base := sig{sr: s.sr, sp: s.sp.Without(pi)}
		for _, c := range o.candidates(base) {
			// µ applies to any base plan (its output order is by the new
			// predicate set regardless of the input's physical order —
			// this is how µ chains over a sort-merge join, the paper's
			// plan4, enter the space).
			if o.opts.RankHeuristic {
				skip, err := o.rankMetricSkips(c.plan, pi, univ, s.sp)
				if err != nil {
					outerErr = err
					return
				}
				if skip {
					continue
				}
			}
			p := &PlanNode{Kind: KindRank, Pred: o.d.q.Spec.Preds[pi],
				Children: []*PlanNode{c.plan}}
			if pr, ok := o.rankMemo[c.plan][pi]; ok {
				// The rank-metric probe estimated this very µ_p(c.plan);
				// its run is started when a parent first reads it.
				p.Card, p.fallback = pr.card, pr.fallback
				p.setEstimated()
			}
			if err := o.annotate(p); err != nil {
				outerErr = err
				return
			}
			o.addCandidate(s, p, "")
		}
	})
	return outerErr
}

// rankMetricSkips implements Figure 10 lines 4-6: appending µ_pu onto plan
// is skipped when some other applicable µ_pv (pv ∈ P − SP) has a strictly
// higher rank, where rank(µ_p) = (1 − card(µ_p(plan))/card(plan)) / cost(p).
func (o *optimizerState) rankMetricSkips(base *PlanNode, pu int, univ, sp schema.Bitset) (bool, error) {
	alt := univ.Diff(sp)
	if alt == 0 {
		return false, nil
	}
	ru, err := o.rankMetric(base, pu)
	if err != nil {
		return false, err
	}
	skip := false
	var ierr error
	alt.Each(func(pv int) {
		if skip || ierr != nil {
			return
		}
		rv, err := o.rankMetric(base, pv)
		if err != nil {
			ierr = err
			return
		}
		if rv > ru {
			skip = true
		}
	})
	return skip, ierr
}

// rankMetric computes (1 − card(plan')/card(plan)) / cost(µ_p) for
// plan' = µ_p(plan), memoized per (plan, predicate) together with the
// probe's estimate.
func (o *optimizerState) rankMetric(base *PlanNode, pi int) (float64, error) {
	if pr, ok := o.rankMemo[base][pi]; ok {
		return pr.metric, nil
	}
	pred := o.d.q.Spec.Preds[pi]
	probe := &PlanNode{Kind: KindRank, Pred: pred, Children: []*PlanNode{base}}
	card, err := o.est.Estimate(probe)
	if err != nil {
		return 0, err
	}
	o.est.release(probe)
	v := o.rankOf(base, pred, card)
	m := o.rankMemo[base]
	if m == nil {
		m = map[int]rankProbe{}
		o.rankMemo[base] = m
	}
	m[pi] = rankProbe{metric: v, card: card, fallback: probe.fallback}
	return v, nil
}

// rankOf is rank(µ_p) over base, given card(µ_p(base)).
func (o *optimizerState) rankOf(base *PlanNode, pred *rank.Predicate, card float64) float64 {
	sel := 1.0
	if base.Card > 0 {
		sel = card / base.Card
	}
	cost := pred.Cost * o.opts.Cost.PredUnit
	if cost <= 0 {
		cost = 1e-6 // free predicates have effectively infinite rank
	}
	return (1 - sel) / cost
}

// finalize picks the best complete plan: the cheapest fully-ranked plan,
// compared against the traditional materialize-then-sort alternative, with
// the LIMIT applied on top.
func (o *optimizerState) finalize() (*PlanNode, error) {
	all := schema.AllBits(len(o.d.q.Tables))
	spAll := o.d.evaluablePreds(all)
	if o.opts.NoRankOperators {
		spAll = 0
	}

	var best *PlanNode
	bestCost := math.Inf(1)
	if !o.opts.NoRankOperators {
		for _, c := range o.candidates(sig{sr: all, sp: spAll}) {
			if c.plan.Cost < bestCost {
				best = c.plan
				bestCost = c.plan.Cost
			}
		}
	}

	if o.d.q.Spec.N() == 0 {
		// Boolean-only query: no ranking dimension, no sort needed.
		for _, c := range o.candidates(sig{sr: all, sp: 0}) {
			if c.plan.Cost < bestCost {
				best = c.plan
				bestCost = c.plan.Cost
			}
		}
	} else {
		// Traditional alternative: τ_F over the best Boolean-only plan.
		for _, c := range o.candidates(sig{sr: all, sp: 0}) {
			srt := &PlanNode{Kind: KindSortScore, Children: []*PlanNode{c.plan}}
			if err := o.annotate(srt); err != nil {
				return nil, err
			}
			o.est.release(srt)
			o.Generated++
			if srt.Cost < bestCost {
				best = srt
				bestCost = srt.Cost
			}
		}
	}

	if best == nil {
		return nil, fmt.Errorf("optimizer: no complete plan found")
	}
	if o.d.q.K > 0 {
		best = Limit(best, o.d.q.K)
	}
	return best, nil
}

// isConnected reports whether the join graph restricted to SR is connected.
func (d *decomposed) isConnected(sr tableSet) bool {
	n := sr.Count()
	if n <= 1 {
		return true
	}
	idx := sr.Indices()
	start := idx[0]
	visited := map[int]bool{start: true}
	frontier := []int{start}
	aliasToIdx := func(a string) int {
		i, ok := d.tableIdx[strings.ToLower(a)]
		if !ok {
			return -1
		}
		return i
	}
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, jc := range d.joins {
			touches := false
			for a := range jc.tables {
				if aliasToIdx(a) == cur {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			for a := range jc.tables {
				i := aliasToIdx(a)
				if i >= 0 && sr.Has(i) && !visited[i] {
					visited[i] = true
					frontier = append(frontier, i)
				}
			}
		}
	}
	return len(visited) == n
}
