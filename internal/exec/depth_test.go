package exec

// Depth tests for the rank join: its answer against a brute-force join,
// and the number of tuples it pulls against the least depth that
// certifies that answer under its own corner bound T.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/storage"
	"ranksql/internal/types"
)

// joinedPair is one join result of a brute-force join: the positions of
// its left and right tuples in their input streams, and the result.
type joinedPair struct {
	i, j int
	t    *schema.Tuple
}

// bruteJoin joins every pair of ls × rs that joins accepts and scores
// each result under spec, as the rank join does.
func bruteJoin(spec *rank.Spec, ls, rs []*schema.Tuple, joins func(l, r *schema.Tuple) bool) []joinedPair {
	var out []joinedPair
	for i, l := range ls {
		for j, r := range rs {
			if joins(l, r) {
				t := schema.Concat(l, r)
				spec.Rescore(t)
				out = append(out, joinedPair{i, j, t})
			}
		}
	}
	return out
}

// cornerDepthOracle returns the least dL + dR such that the first dL
// tuples of ls and the first dR of rs hold min(k, |join|) join results
// scoring at least
//
//	T(dL, dR) = max( UB(ls[dL-1] ⊕ rs[0]), UB(ls[0] ⊕ rs[dR-1]) ),
//
// where a side read to its end drops its term. When the join has fewer
// than k results, T must be −∞: both sides read to the end. No rank join
// that certifies its answer by T can stop earlier. The oracle knows for
// free that a side has ended; the join learns it only by a pull that
// returns nothing, which reads no tuple.
func cornerDepthOracle(spec *rank.Spec, ls, rs []*schema.Tuple, joined []joinedPair, k int) int {
	if len(ls) == 0 || len(rs) == 0 {
		return 0
	}
	ub := func(l, r *schema.Tuple) float64 {
		t := schema.Concat(l, r)
		spec.Rescore(t)
		return t.Score
	}
	need := min(k, len(joined))
	best := math.MaxInt
	for dL := 1; dL <= len(ls); dL++ {
		for dR := 1; dR <= len(rs) && dL+dR < best; dR++ {
			T := math.Inf(-1)
			if dL < len(ls) {
				T = math.Max(T, ub(ls[dL-1], rs[0]))
			}
			if dR < len(rs) {
				T = math.Max(T, ub(ls[0], rs[dR-1]))
			}
			if need < k && !math.IsInf(T, -1) {
				continue
			}
			held := 0
			for _, p := range joined {
				if p.i < dL && p.j < dR && p.t.Score >= T {
					held++
				}
			}
			if held >= need {
				best = dL + dR
				break
			}
		}
	}
	return best
}

// depthCase is one random rank-join input.
type depthCase struct {
	desc  string
	spec  *rank.Spec
	l, r  *snapSource // the ranked inputs, drained once
	keyed bool
	cond  expr.Expr // the keyless join's condition
	joins func(l, r *schema.Tuple) bool
	k     int
}

// randDepthCase draws a rank-join input over L(k, p1, p2) and R(k, p1,
// p2), ranked by L.p1 + R.p1 plus, in two cases of three, an extra
// predicate on one side. That side's input leaves it unevaluated, or
// ranks by it too: then its first tuple starts further below the maxima
// of what it has evaluated than the other side's (skewed baselines).
// Scores come from 2, 4 or 100 levels (ties), a side may hold 0 to 3
// tuples (empty or exhausted early), keys may be NULL, and the join is
// keyed (HRJN on L.k = R.k) or keyless (NRJN on L.k = R.k or L.k < R.k).
func randDepthCase(t *testing.T, r *rand.Rand) depthCase {
	levels := []int{2, 4, 100}[r.Intn(3)]
	table := func(name string) *storage.Table {
		n := 1 + r.Intn(80)
		if r.Intn(4) == 0 {
			n = r.Intn(4)
		}
		keyspace := 1 + r.Intn(8)
		tbl := storage.NewTable(name, schema.NewSchema(schema.Column{Name: "k", Kind: types.KindInt},
			schema.Column{Name: "p1", Kind: types.KindFloat}, schema.Column{Name: "p2", Kind: types.KindFloat}))
		level := func() types.Value { return types.NewFloat(float64(r.Intn(levels+1)) / float64(levels)) }
		for i := 0; i < n; i++ {
			tbl.MustAppend([]types.Value{types.NewInt(int64(r.Intn(keyspace))), level(), level()})
		}
		if r.Intn(3) == 0 {
			tbl = nullKeys(r, tbl)
		}
		return tbl
	}
	pred := func(i int, table, col string) *rank.Predicate {
		return &rank.Predicate{Index: i, Name: table + "." + col,
			Args: []rank.ColumnRef{{Table: table, Column: col}}, Fn: identFn, Cost: 1}
	}
	preds := []*rank.Predicate{pred(0, "L", "p1"), pred(1, "R", "p1")}
	extra := []string{"", "L", "R"}[r.Intn(3)]
	ranks := map[string][]*rank.Predicate{"L": {preds[0]}, "R": {preds[1]}}
	if extra != "" {
		preds = append(preds, pred(2, extra, "p2"))
		if r.Intn(2) == 0 {
			ranks[extra] = append(ranks[extra], preds[2])
		}
	}
	c := depthCase{spec: rank.MustSpec(rank.NewSum(len(preds)), preds), k: []int{1, 2, 5, 10, 50}[r.Intn(5)]}
	ctx := NewContext(c.spec)
	ranked := func(name string) *snapSource {
		var op Operator = NewSeqScan(table(name), name)
		for _, p := range ranks[name] {
			m, err := NewRank(op, p)
			if err != nil {
				t.Fatal(err)
			}
			op = m
		}
		return snapshotOf(t, ctx, op)
	}
	c.l, c.r = ranked("L"), ranked("R")
	keysOK := func(l, r *schema.Tuple) bool { return !l.Values[0].IsNull() && !r.Values[0].IsNull() }
	equal := func(l, r *schema.Tuple) bool { return keysOK(l, r) && types.Equal(l.Values[0], r.Values[0]) }
	lk, rk := expr.NewCol("L", "k"), expr.NewCol("R", "k")
	switch r.Intn(3) {
	case 0:
		c.keyed, c.joins = true, equal
	case 1:
		c.cond, c.joins = expr.Eq(lk, rk), equal
	default:
		c.cond = expr.Lt(lk, rk)
		c.joins = func(l, r *schema.Tuple) bool { return keysOK(l, r) && types.Compare(l.Values[0], r.Values[0]) < 0 }
	}
	c.desc = fmt.Sprintf("|L|=%d |R|=%d levels=%d extra=%q ranked=%d/%d keyed=%v cond=%v k=%d",
		len(c.l.rows), len(c.r.rows), levels, extra, len(ranks["L"]), len(ranks["R"]), c.keyed, c.cond, c.k)
	return c
}

// run executes λ_k over the rank join of c's inputs and returns the
// answer and the number of tuples the join pulled.
func (c depthCase) run(t *testing.T) ([]*schema.Tuple, int) {
	t.Helper()
	var (
		join *RankJoin
		err  error
	)
	if c.keyed {
		join, err = NewHRJN(c.l, c.r, expr.NewCol("L", "k"), expr.NewCol("R", "k"), nil)
	} else {
		join, err = NewNRJN(c.l, c.r, c.cond)
	}
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(NewContext(c.spec), NewLimit(join, c.k))
	if err != nil {
		t.Fatal(err)
	}
	return out, c.l.pos + c.r.pos
}

// sameTopK reports how got differs from the top k of joined: its scores
// must be the brute-force top k's, position by position, and its results
// a sub-multiset of the brute-force join's. Then every score class but
// the last is the brute force's whole class, and the last one a part of
// it. "" when they agree.
func sameTopK(got []*schema.Tuple, joined []joinedPair, k int) string {
	type result struct {
		score float64
		id    string
	}
	left := map[result]int{}
	all := make([]float64, len(joined))
	for i, p := range joined {
		all[i] = p.t.Score
		left[result{p.t.Score, identityKey(p.t)}]++
	}
	want := sortedDesc(all)[:min(k, len(all))]
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i, t := range got {
		if t.Score != want[i] {
			return fmt.Sprintf("score[%d] = %v, want %v", i, t.Score, want[i])
		}
		r := result{t.Score, identityKey(t)}
		if left[r]--; left[r] < 0 {
			return fmt.Sprintf("result %d (%v) is not in the brute-force join, or repeated", i, t)
		}
	}
	return ""
}

// TestRankJoinDepthVsOracle runs the rank join on random inputs with
// heavy ties, skewed baselines, empty and early-exhausted sides, NULL
// keys, keyed and keyless. Its top k must be the brute-force join's, and
// the tuples it pulls at most twice the least depth that certifies that
// answer under T (cornerDepthOracle). With an empty side the oracle reads
// nothing, while the join cannot know which side is empty before it
// pulls: it may read one tuple.
func TestRankJoinDepthVsOracle(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for n := 0; n < 300; n++ {
		c := randDepthCase(t, r)
		ls, rs := c.l.rows, c.r.rows
		joined := bruteJoin(c.spec, ls, rs, c.joins)
		got, depth := c.run(t)
		if msg := sameTopK(got, joined, c.k); msg != "" {
			t.Fatalf("case %d (%s): %s", n, c.desc, msg)
		}
		least := cornerDepthOracle(c.spec, ls, rs, joined, c.k)
		limit := 2 * least
		if least == 0 {
			limit = 1
		}
		if depth > limit {
			t.Errorf("case %d (%s): read %d tuples, least certifying depth %d", n, c.desc, depth, least)
		}
	}
}
