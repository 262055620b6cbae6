package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"ranksql/internal/catalog"
	"ranksql/internal/exec"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// rng is a tiny deterministic PRNG (xorshift*) so fixtures are stable.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// figure9Fixture builds the Example 5 database: R(a,b,p1), S(a,c,p3,p4)
// with an attribute index on R.a, a rank index on S.p3, and a spec
// F = p1 + p3 + p4.
func figure9Fixture(t *testing.T, rows int) (*catalog.Catalog, *Query) {
	t.Helper()
	c := catalog.New()
	r := rng(42)

	rsch := schema.NewSchema(
		schema.Column{Name: "a", Kind: types.KindInt},
		schema.Column{Name: "b", Kind: types.KindInt},
		schema.Column{Name: "p1", Kind: types.KindFloat},
	)
	rt, err := c.CreateTable("R", rsch)
	if err != nil {
		t.Fatal(err)
	}
	distinct := rows / 10
	if distinct < 1 {
		distinct = 1
	}
	for i := 0; i < rows; i++ {
		rt.Table.MustAppend([]types.Value{
			types.NewInt(int64(r.intn(distinct))),
			types.NewInt(int64(r.intn(5))),
			types.NewFloat(r.float()),
		})
	}
	ssch := schema.NewSchema(
		schema.Column{Name: "a", Kind: types.KindInt},
		schema.Column{Name: "c", Kind: types.KindInt},
		schema.Column{Name: "p3", Kind: types.KindFloat},
		schema.Column{Name: "p4", Kind: types.KindFloat},
	)
	st, err := c.CreateTable("S", ssch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		st.Table.MustAppend([]types.Value{
			types.NewInt(int64(r.intn(distinct))),
			types.NewInt(int64(r.intn(5))),
			types.NewFloat(r.float()),
			types.NewFloat(r.float()),
		})
	}
	if _, err := rt.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	ident := func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f }
	if _, err := st.CreateRankIndex("p3", []string{"p3"}, ident); err != nil {
		t.Fatal(err)
	}

	colPred := func(index int, scorer, table, col string, cost float64) *rank.Predicate {
		return &rank.Predicate{
			Index:  index,
			Name:   scorer + "(" + table + "." + col + ")",
			Scorer: scorer,
			Args:   []rank.ColumnRef{{Table: table, Column: col}},
			Fn:     ident,
			Cost:   cost,
		}
	}
	spec := rank.MustSpec(rank.NewSum(3), []*rank.Predicate{
		colPred(0, "p1", "R", "p1", 1),
		colPred(1, "p3", "S", "p3", 1),
		colPred(2, "p4", "S", "p4", 1),
	})
	q := &Query{
		Catalog: c,
		Tables:  []TableRef{{Alias: "R", Name: "R"}, {Alias: "S", Name: "S"}},
		Where:   expr.Eq(expr.NewCol("R", "a"), expr.NewCol("S", "a")),
		Spec:    spec,
		K:       10,
	}
	return c, q
}

// canonicalPlan builds the naive evaluation plan naiveTopK runs as the
// oracle: filtered sequential scans, a nested-loops join chain carrying
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

// tableEnv maps every query alias to its real table.
func tableEnv(d *decomposed) *Env {
	env := &Env{Tables: map[string]*catalog.TableMeta{}}
	for i, tr := range d.q.Tables {
		env.Tables[strings.ToLower(tr.Alias)] = d.metas[i]
	}
	return env
}

// naiveTopK computes the query's answer with the canonical plan directly
// on the real tables (the oracle).
func naiveTopK(t *testing.T, q *Query) []float64 {
	t.Helper()
	d, err := decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	e := &Estimator{d: d, env: tableEnv(d)}
	scores := runScores(t, q, e.canonicalPlan(), e.env)
	if q.K > 0 && len(scores) > q.K {
		scores = scores[:q.K]
	}
	return scores
}

// runPlan executes an optimized plan and returns its output scores.
func runPlan(t *testing.T, q *Query, res *Result) []float64 {
	t.Helper()
	return runScores(t, q, res.Plan, res.Env)
}

// runScores builds plan against env, drains it and returns its output
// scores.
func runScores(t *testing.T, q *Query, plan *PlanNode, env *Env) []float64 {
	t.Helper()
	op, err := plan.Build(env)
	if err != nil {
		t.Fatalf("build: %v\nplan:\n%s", err, plan)
	}
	ctx := exec.NewContext(q.Spec)
	tuples, err := exec.Run(ctx, op)
	if err != nil {
		t.Fatalf("run: %v\nplan:\n%s", err, plan)
	}
	scores := make([]float64, 0, len(tuples))
	for _, tp := range tuples {
		scores = append(scores, tp.Score)
	}
	return scores
}

func scoresEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// TestFigure9Signatures checks that dimension enumeration populates the
// signatures of Figure 9, that each retained plan's operator tree
// evaluates exactly its signature's predicates, and that every complete
// plan the full space retains answers the query: each candidate of
// (all tables, all predicates), and τ_F over each candidate of
// (all tables, ∅), must return the naive plan's top-k scores under λ_k
// on the real tables.
func TestFigure9Signatures(t *testing.T) {
	_, q := figure9Fixture(t, 2000)
	d, err := decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.RankHeuristic = false // full space, as in Figure 9
	est, err := newEstimator(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := newOptimizerState(d, opts, est)
	if err := o.enumerate(); err != nil {
		t.Fatal(err)
	}

	rSet := tableSet(0).With(0)
	sSet := tableSet(0).With(1)
	both := rSet.Union(sSet)
	p1 := schema.Bit(0)
	p3 := schema.Bit(1)
	p4 := schema.Bit(2)

	wantSigs := []sig{
		{sr: rSet, sp: 0},            // row (1,0): scans on R
		{sr: sSet, sp: 0},            // row (1,0): scans on S
		{sr: rSet, sp: p1},           // row (1,1): µp1(seqScan(R))
		{sr: sSet, sp: p3},           // row (1,1): idxScan_p3(S) or µp3
		{sr: sSet, sp: p4},           // row (1,1): µp4(seqScan(S))
		{sr: sSet, sp: p3.Union(p4)}, // row (1,2)
		{sr: both, sp: 0},            // row (2,0)
		{sr: both, sp: p1},           // row (2,1)
		{sr: both, sp: p3},
		{sr: both, sp: p4},
		{sr: both, sp: p1.Union(p3)},           // row (2,2)
		{sr: both, sp: p1.Union(p3).Union(p4)}, // row (2,3): final
	}
	for _, s := range wantSigs {
		cands := o.candidates(s)
		if len(cands) == 0 {
			t.Errorf("no plan for signature (SR=%s, SP=%s)", s.sr, s.sp)
			continue
		}
		for _, c := range cands {
			op, err := c.plan.Build(est.env)
			if err != nil {
				t.Fatalf("build on samples: %v\nplan:\n%s", err, c.plan)
			}
			if got := op.Evaluated(); got != s.sp {
				t.Errorf("signature (SR=%s, SP=%s): operator tree evaluates %s\nplan:\n%s",
					s.sr, s.sp, got, c.plan)
			}
		}
	}

	want := naiveTopK(t, q)
	env := tableEnv(d)
	topK := func(p *PlanNode) *PlanNode {
		return &PlanNode{Kind: KindLimit, K: q.K, Children: []*PlanNode{p}}
	}
	var complete []*PlanNode
	for _, c := range o.candidates(sig{sr: both, sp: p1.Union(p3).Union(p4)}) {
		complete = append(complete, c.plan)
	}
	for _, c := range o.candidates(sig{sr: both, sp: 0}) {
		complete = append(complete, &PlanNode{Kind: KindSortScore, Children: []*PlanNode{c.plan}})
	}
	for _, p := range complete {
		if got := runScores(t, q, topK(p), env); !scoresEqual(got, want) {
			t.Errorf("candidate scores %v != naive %v\nplan:\n%s", got, want, p)
		}
	}

	// The (S, {p3}) signature must be served by the rank index: the
	// rank-scan should beat µp3(seqScan).
	foundRankScan := false
	for _, c := range o.candidates(sig{sr: sSet, sp: p3}) {
		n := c.plan
		for len(n.Children) > 0 {
			n = n.Children[0]
		}
		if n.Kind == KindRankScan {
			foundRankScan = true
		}
	}
	if !foundRankScan {
		t.Errorf("(S, {p3}) not served by idxScan_p3 rank-scan")
	}
}

// TestOptimizeMatchesNaive verifies the chosen plan computes the same
// top-k scores as the canonical plan.
func TestOptimizeMatchesNaive(t *testing.T) {
	for _, heur := range []bool{true, false} {
		_, q := figure9Fixture(t, 1500)
		opts := DefaultOptions()
		opts.RankHeuristic = heur
		res, err := Optimize(q, opts)
		if err != nil {
			t.Fatalf("heuristic=%v: %v", heur, err)
		}
		got := runPlan(t, q, res)
		want := naiveTopK(t, q)
		if !scoresEqual(got, want) {
			t.Errorf("heuristic=%v: optimized scores %v != naive %v\nplan:\n%s",
				heur, got, want, res.Plan)
		}
	}
}

// TestOptimizeTraditional checks the NoRankOperators baseline: the plan
// must be a materialize-then-sort and still produce correct answers.
func TestOptimizeTraditional(t *testing.T) {
	_, q := figure9Fixture(t, 1500)
	opts := DefaultOptions()
	opts.NoRankOperators = true
	res, err := Optimize(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Plan must contain a SortScore and no rank operators.
	hasSort, hasRankOp := false, false
	var walk func(*PlanNode)
	walk = func(p *PlanNode) {
		switch p.Kind {
		case KindSortScore:
			hasSort = true
		case KindRank, KindHRJN, KindNRJN, KindRankScan:
			hasRankOp = true
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	walk(res.Plan)
	if !hasSort || hasRankOp {
		t.Errorf("traditional plan malformed (sort=%v rankOps=%v):\n%s",
			hasSort, hasRankOp, res.Plan)
	}
	got := runPlan(t, q, res)
	want := naiveTopK(t, q)
	if !scoresEqual(got, want) {
		t.Errorf("traditional scores %v != naive %v", got, want)
	}
}

// TestHeuristicReducesSearch confirms the Figure 10 heuristics shrink the
// enumerated plan count without losing correctness.
func TestHeuristicReducesSearch(t *testing.T) {
	_, q := figure9Fixture(t, 1500)

	full := DefaultOptions()
	full.RankHeuristic = false
	full.LeftDeepOnly = false
	rFull, err := Optimize(q, full)
	if err != nil {
		t.Fatal(err)
	}

	_, q2 := figure9Fixture(t, 1500)
	heur := DefaultOptions()
	rHeur, err := Optimize(q2, heur)
	if err != nil {
		t.Fatal(err)
	}
	if rHeur.Generated >= rFull.Generated {
		t.Errorf("heuristics did not reduce enumeration: %d >= %d",
			rHeur.Generated, rFull.Generated)
	}
	if !scoresEqual(runPlan(t, q, rFull), runPlan(t, q2, rHeur)) {
		t.Errorf("heuristic plan answers differ from full-space plan")
	}
}

// TestEstimatorScanCard checks the scan scaling rule card = u / s%.
func TestEstimatorScanCard(t *testing.T) {
	_, q := figure9Fixture(t, 2000)
	d, err := decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := newEstimator(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	scan := &PlanNode{Kind: KindSeqScan, Alias: "R"}
	card, err := est.Estimate(scan)
	if err != nil {
		t.Fatal(err)
	}
	// A sequential scan's outputs all carry the ceiling bound, so u is
	// the whole sample and card must come back ≈ |R|.
	if math.Abs(card-2000) > 1 {
		t.Errorf("seqScan card = %g, want 2000", card)
	}
}

// TestEstimatorRankedCard sanity-checks that a rank-scan's estimated
// cardinality is cut by x' (it should be well below the full table).
func TestEstimatorRankedCard(t *testing.T) {
	_, q := figure9Fixture(t, 2000)
	q.K = 5
	d, err := decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := newEstimator(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(est.XPrime, -1) {
		t.Skip("sample too sparse to estimate x' for this fixture")
	}
	rs := &PlanNode{Kind: KindRankScan, Alias: "S", Pred: q.Spec.Preds[1]}
	card, err := est.Estimate(rs)
	if err != nil {
		t.Fatal(err)
	}
	if card <= 0 || card >= 2000 {
		t.Errorf("rank-scan card = %g, want within (0, 2000)", card)
	}
}

// TestDecomposeClassification checks WHERE-clause conjunct classification.
func TestDecomposeClassification(t *testing.T) {
	c, q := figure9Fixture(t, 100)
	_ = c
	q.Where = expr.And(
		expr.Eq(expr.NewCol("R", "a"), expr.NewCol("S", "a")),
		expr.Gt(expr.NewCol("R", "b"), expr.NewConst(types.NewInt(1))),
		expr.Lt(expr.NewCol("S", "c"), expr.NewConst(types.NewInt(4))),
	)
	d, err := decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.sel[0]) != 1 || len(d.sel[1]) != 1 {
		t.Errorf("selection split = %d/%d conjuncts, want 1/1", len(d.sel[0]), len(d.sel[1]))
	}
	if len(d.joins) != 1 || d.joins[0].l == nil {
		t.Errorf("join conds = %v, want one equi-join", d.joins)
	}
	sort.Strings(nil) // keep sort import
}

// TestEmptySampleJoinFallsBack: two tables whose 1 % stride samples share
// no join key (R.a = tid, S.a = tid+1, so the sampled keys are 0, 100, …
// against 1, 101, …) still give their join a nonzero card: the System-R
// floor sel·card(R)·card(S), marked est=fallback in EXPLAIN.
func TestEmptySampleJoinFallsBack(t *testing.T) {
	const rows = 10000
	c := catalog.New()
	ident := func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f }
	r := rng(5)
	var preds []*rank.Predicate
	for i, name := range []string{"R", "S"} {
		tm, err := c.CreateTable(name, schema.NewSchema(
			schema.Column{Name: "a", Kind: types.KindInt},
			schema.Column{Name: "p", Kind: types.KindFloat},
		))
		if err != nil {
			t.Fatal(err)
		}
		for tid := 0; tid < rows; tid++ {
			tm.Table.MustAppend([]types.Value{types.NewInt(int64(tid + i)), types.NewFloat(r.float())})
		}
		preds = append(preds, &rank.Predicate{Index: i, Name: "f(" + name + ".p)", Scorer: "f",
			Args: []rank.ColumnRef{{Table: name, Column: "p"}}, Fn: ident, Cost: 1})
	}
	q := &Query{
		Catalog: c,
		Tables:  []TableRef{{Alias: "R", Name: "R"}, {Alias: "S", Name: "S"}},
		Where:   expr.Eq(expr.NewCol("R", "a"), expr.NewCol("S", "a")),
		Spec:    rank.MustSpec(rank.NewSum(2), preds),
		K:       10,
	}
	d, err := decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := newEstimator(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hj := &PlanNode{Kind: KindHashJoin, LeftKey: expr.NewCol("R", "a"), RightKey: expr.NewCol("S", "a"),
		Children: []*PlanNode{{Kind: KindSeqScan, Alias: "R"}, {Kind: KindSeqScan, Alias: "S"}}}
	card, err := est.Estimate(hj)
	if err != nil {
		t.Fatal(err)
	}
	// The real join holds rows-1 pairs; the floor is (1/rows)·rows·rows.
	if math.Abs(card-rows) > 1 {
		t.Errorf("hashJoin card = %g, want the System-R floor %d", card, rows)
	}
	if line := strings.SplitN(hj.String(), "\n", 2)[0]; !strings.Contains(line, "est=fallback") {
		t.Errorf("join not marked est=fallback: %q", line)
	}

	res, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var walk func(p *PlanNode)
	walk = func(p *PlanNode) {
		if p.Card <= 0 {
			t.Errorf("%s estimated at %g\n%s", p.Label(), p.Card, res.Plan)
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	walk(res.Plan)
}

// TestEstimatorScansSampleIndexes: in the estimator's Env every alias
// reads its table's snapshot sample, which carries the table's indexes,
// so index scans build and run on the sample as they do on the table:
// the rank-scan reads its scores from the sample's rank index (no
// predicate evaluations) and the column scan walks the sample's attribute
// index in key order.
func TestEstimatorScansSampleIndexes(t *testing.T) {
	_, q := figure9Fixture(t, 2000)
	d, err := decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := newEstimator(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*PlanNode{
		{Kind: KindRankScan, Alias: "S", Pred: q.Spec.Preds[1]},
		{Kind: KindIdxScanCol, Alias: "R", SortTable: "R", SortCol: "a"},
	} {
		op, err := p.Build(est.env)
		if err != nil {
			t.Fatalf("%s: %v", p.Label(), err)
		}
		ctx := exec.NewContext(q.Spec)
		out, err := exec.Run(ctx, op)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 || ctx.Stats.TuplesScanned != 100 || ctx.Stats.PredEvals != 0 {
			t.Errorf("%s: %d rows, %d scanned, %d predicate evaluations; want the 100-row sample through its index",
				p.Label(), len(out), ctx.Stats.TuplesScanned, ctx.Stats.PredEvals)
		}
		for i := 1; i < len(out); i++ {
			if p.Kind == KindRankScan && out[i].Score > out[i-1].Score ||
				p.Kind == KindIdxScanCol && out[i].Values[0].Int() < out[i-1].Values[0].Int() {
				t.Fatalf("%s: output out of index order at %d", p.Label(), i)
			}
		}
	}
}

// freshCopy is the oracle for the Estimator's kept sample runs: it
// re-annotates a copy of p the way Estimate worked before runs were kept,
// building each node's whole subtree on the samples and executing it from
// scratch, children first, so no card it reads comes from a kept run.
func (o *optimizerState) freshCopy(t *testing.T, p *PlanNode) *PlanNode {
	t.Helper()
	cp := *p
	cp.Children = make([]*PlanNode, len(p.Children))
	for i, c := range p.Children {
		cp.Children[i] = o.freshCopy(t, c)
	}
	if p.Kind == KindLimit {
		// finalize's λ_k is annotated from its input, not estimated.
		cp.Card = math.Min(float64(p.K), cp.Children[0].Card)
		cp.Cost = cp.Children[0].Cost
		return &cp
	}
	op, err := cp.Build(o.est.env)
	if err != nil {
		t.Fatalf("build %s: %v", cp.Label(), err)
	}
	ctx := exec.NewContext(o.d.q.Spec)
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	u := 0
	for {
		tp, err := op.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if tp == nil || tp.Score < o.est.XPrime {
			break
		}
		u++
	}
	if cp.Card, cp.fallback, err = o.est.scaleUp(&cp, op, u); err != nil {
		t.Fatal(err)
	}
	op.Close()
	cp.Cost = o.costNode(&cp)
	return &cp
}

// sameAnnotations reports the first node where got and want differ in
// card, fallback flag or cost, compared exactly.
func sameAnnotations(got, want *PlanNode) (string, bool) {
	if got.Card != want.Card || got.fallback != want.fallback || got.Cost != want.Cost {
		return fmt.Sprintf("%s: card=%v fallback=%v cost=%v, fresh card=%v fallback=%v cost=%v",
			got.Label(), got.Card, got.fallback, got.Cost, want.Card, want.fallback, want.Cost), false
	}
	for i := range got.Children {
		if msg, ok := sameAnnotations(got.Children[i], want.Children[i]); !ok {
			return msg, false
		}
	}
	return "", true
}

// CheckKeptRuns enumerates q and checks, against the freshCopy oracle,
// every retained candidate's annotations, every rank-metric probe of the
// Figure 10 heuristic, and the chosen plan's EXPLAIN text, which must
// also be what Optimize returns. The kept sample runs must change no
// estimate and so no plan choice. Exported for the Q grid in
// package optimizer_test, which imports internal/paper.
func CheckKeptRuns(t *testing.T, q *Query, opts Options) {
	t.Helper()
	d, err := decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := newEstimator(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := newOptimizerState(d, opts, est)
	if err := o.enumerate(); err != nil {
		t.Fatal(err)
	}
	plan, err := o.finalize()
	if err != nil {
		t.Fatal(err)
	}
	est.Close()

	checked := 0
	for _, list := range o.best {
		for _, c := range list {
			if msg, ok := sameAnnotations(c.plan, o.freshCopy(t, c.plan)); !ok {
				t.Errorf("candidate differs from a fresh estimate at %s\nplan:\n%s", msg, c.plan)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no candidates retained")
	}
	for base, m := range o.rankMemo {
		for pi, v := range m {
			pred := q.Spec.Preds[pi]
			probe := o.freshCopy(t, &PlanNode{Kind: KindRank, Pred: pred, Children: []*PlanNode{base}})
			if fresh := o.rankOf(base, pred, probe.Card); v.metric != fresh {
				t.Errorf("rank(µ_%s) over\n%s= %v, fresh %v", pred, base, v.metric, fresh)
			}
			if v.node.Card != probe.Card || v.node.fallback != probe.fallback {
				t.Errorf("probe µ_%s over\n%s: card=%v fallback=%v, fresh card=%v fallback=%v",
					pred, base, v.node.Card, v.node.fallback, probe.Card, probe.fallback)
			}
		}
	}
	if fresh := o.freshCopy(t, plan).String(); plan.String() != fresh {
		t.Errorf("chosen plan\n%s!= fresh\n%s", plan, fresh)
	}
	res, err := Optimize(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Plan.String(); got != plan.String() {
		t.Errorf("Optimize chose\n%s, the enumeration\n%s", got, plan)
	}
}

// TestKeptRunsTwoTables runs CheckKeptRuns on the Example 5 join R ⨝ S,
// keyed (hash, merge with injected sorts, HRJN) and keyless (nested
// loops, NRJN), with the heuristics on and off.
func TestKeptRunsTwoTables(t *testing.T) {
	for _, where := range []expr.Expr{
		nil, // figure9Fixture's R.a = S.a
		expr.Lt(expr.NewCol("R", "b"), expr.NewCol("S", "c")),
	} {
		for _, heur := range []bool{true, false} {
			for _, k := range []int{1, 10, 100} {
				_, q := figure9Fixture(t, 2000)
				if where != nil {
					q.Where = where
				}
				q.K = k
				opts := DefaultOptions()
				opts.RankHeuristic, opts.LeftDeepOnly = heur, heur
				t.Run(fmt.Sprintf("%s/heur=%v/k=%d", q.Where, heur, k), func(t *testing.T) {
					CheckKeptRuns(t, q, opts)
				})
			}
		}
	}
}

// TestKeptRunsNestedLoopTwin runs CheckKeptRuns where the nested loop
// over an equi-keyed pair is cheaper than its hash join twin (three rows
// a side, one key value): the nested loop is priced on the hash join's
// sample run, which the τ_F above it reads.
func TestKeptRunsNestedLoopTwin(t *testing.T) {
	for _, noRank := range []bool{true, false} {
		_, q := figure9Fixture(t, 3)
		opts := DefaultOptions()
		opts.NoRankOperators = noRank
		res, err := Optimize(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if noRank && !strings.Contains(res.Plan.String(), "nestLoop((R.a = S.a))") {
			t.Fatalf("want the keyed nested loop chosen, got\n%s", res.Plan)
		}
		t.Run(fmt.Sprintf("noRank=%v", noRank), func(t *testing.T) {
			CheckKeptRuns(t, q, opts)
		})
	}
}
