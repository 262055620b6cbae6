package optimizer

import (
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

// naiveTopK computes the query's answer with the canonical plan directly
// on the real tables (the oracle).
func naiveTopK(t *testing.T, q *Query) []float64 {
	t.Helper()
	d, err := decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	e := &Estimator{d: d, env: &Env{Catalog: q.Catalog, Aliases: map[string]string{}}}
	for _, tr := range q.Tables {
		e.env.Aliases[strings.ToLower(tr.Alias)] = tr.Name
	}
	e.env.UseSample = false
	plan := e.canonicalPlan()
	op, err := plan.Build(e.env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewContext(q.Spec)
	tuples, err := exec.Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, 0, len(tuples))
	for _, tp := range tuples {
		scores = append(scores, tp.Score)
	}
	if q.K > 0 && len(scores) > q.K {
		scores = scores[:q.K]
	}
	return scores
}

// runPlan executes an optimized plan and returns its output scores.
func runPlan(t *testing.T, q *Query, res *Result) []float64 {
	t.Helper()
	op, err := res.Plan.Build(res.Env)
	if err != nil {
		t.Fatalf("build: %v\nplan:\n%s", err, res.Plan)
	}
	ctx := exec.NewContext(q.Spec)
	tuples, err := exec.Run(ctx, op)
	if err != nil {
		t.Fatalf("run: %v\nplan:\n%s", err, res.Plan)
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
// signatures of Figure 9 and that each retained plan carries the right
// evaluated set.
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
	o := &optimizerState{d: d, opts: opts, est: est,
		best: map[sig][]*candidate{}, rankMemo: map[*PlanNode]map[int]float64{}}
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
			if c.plan.Eval != s.sp {
				t.Errorf("signature (SR=%s, SP=%s): plan evaluated set %s",
					s.sr, s.sp, c.plan.Eval)
			}
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
