package algebra

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ranksql/internal/rank"
	"ranksql/internal/schema"
)

// genRelation builds a random rank-relation with ids offset by base so two
// relations can share keys (for set operations) while keeping distinct IDs.
func genRelation(r *rand.Rand, npreds, maxTuples int, keyspace int, base schema.TID, p schema.Bitset) *Relation {
	n := r.Intn(maxTuples + 1)
	rel := &Relation{P: p}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", r.Intn(keyspace))
		if seen[key] {
			continue // set semantics: unique keys within a relation
		}
		seen[key] = true
		scores := make([]float64, npreds)
		for j := range scores {
			scores[j] = float64(r.Intn(100)) / 100
		}
		rel.Tuples = append(rel.Tuples, Tuple{
			ID:     base + schema.TID(i),
			Key:    key,
			Scores: scores,
		})
	}
	return rel
}

// sharedScores makes the tuples of b that share keys with a carry the same
// ground-truth scores (a tuple's predicate values are properties of the
// tuple, not of the relation it sits in).
func sharedScores(a, b *Relation) {
	byKey := map[string][]float64{}
	for _, t := range a.Tuples {
		byKey[t.Key] = t.Scores
	}
	for i, t := range b.Tuples {
		if s, ok := byKey[t.Key]; ok {
			b.Tuples[i].Scores = s
		}
	}
}

func randBitset(r *rand.Rand, n int) schema.Bitset {
	var b schema.Bitset
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			b = b.With(i)
		}
	}
	return b
}

// checkLaw runs a property with testing/quick over random seeds.
func checkLaw(t *testing.T, name string, prop func(seed int64) bool) {
	t.Helper()
	if err := quick.Check(func(seed int64) bool { return prop(seed) }, &quick.Config{MaxCount: 60}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

const nPreds = 4

func specN() *rank.Spec {
	preds := make([]*rank.Predicate, nPreds)
	for i := range preds {
		preds[i] = &rank.Predicate{Index: i, Name: fmt.Sprintf("p%d", i+1), Cost: 1}
	}
	return rank.MustSpec(rank.NewSum(nPreds), preds)
}

// TestProposition1Splitting: R_{p1..pn} ≡ µp1(µp2(...µpn(R))).
func TestProposition1Splitting(t *testing.T) {
	spec := specN()
	checkLaw(t, "prop1", func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := &Base{Name: "R", Rel: genRelation(r, nPreds, 12, 40, 0, 0)}
		lhs := &Base{Name: "R'", Rel: &Relation{Tuples: base.Rel.Tuples, P: schema.AllBits(nPreds)}}
		rhs := &Mu{P: 0, E: &Mu{P: 1, E: &Mu{P: 2, E: &Mu{P: 3, E: base}}}}
		ok, _, err := Equivalent(spec, lhs, rhs)
		return err == nil && ok
	})
}

// kindName names a set operation in a law's label.
var kindName = map[SetKind]string{Union: "∪", Intersect: "∩", Diff: "−"}

// TestProposition2Commutativity: R Θ S ≡ S Θ R for ∪, ∩ (⨝ covered by
// TestProposition2Join); difference must NOT commute in general.
func TestProposition2Commutativity(t *testing.T) {
	spec := specN()
	for _, kind := range []SetKind{Union, Intersect} {
		kind := kind
		checkLaw(t, "prop2-"+kindName[kind], func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			ra := genRelation(r, nPreds, 10, 15, 0, randBitset(r, nPreds))
			rb := genRelation(r, nPreds, 10, 15, 1000, randBitset(r, nPreds))
			sharedScores(ra, rb)
			a, b := &Base{Name: "A", Rel: ra}, &Base{Name: "B", Rel: rb}
			eq, _, err := Equivalent(spec, &SetOp{Kind: kind, L: a, R: b}, &SetOp{Kind: kind, L: b, R: a})
			return err == nil && eq
		})
	}
	// Difference: A − B ≢ B − A as soon as each holds a key the other
	// lacks.
	a := &Base{Name: "A", Rel: &Relation{Tuples: []Tuple{{ID: 1, Key: "x", Scores: make([]float64, nPreds)}}}}
	b := &Base{Name: "B", Rel: &Relation{Tuples: []Tuple{{ID: 2, Key: "y", Scores: make([]float64, nPreds)}}}}
	eq, _, err := Equivalent(spec, &SetOp{Kind: Diff, L: a, R: b}, &SetOp{Kind: Diff, L: b, R: a})
	if err != nil || eq {
		t.Errorf("A − B ≡ B − A (err %v); difference must not commute", err)
	}
}

// TestProposition2Join: R ⨝ S ≡ S ⨝ R.
func TestProposition2Join(t *testing.T) {
	spec := specN()
	checkLaw(t, "prop2-join", func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Left owns predicates 0..1, right owns 2..3.
		ra := genRelation(r, nPreds, 8, 30, 0, randBitset(r, 2))
		rb := genRelation(r, nPreds, 8, 30, 1000, randBitset(r, 2)<<2)
		zeroSide(ra, schema.AllBits(nPreds).Diff(schema.AllBits(2)))
		zeroSide(rb, schema.AllBits(2))
		cond := func(l, rt Tuple) bool { return (l.ID+rt.ID)%2 == 0 }
		a, b := &Base{Name: "A", Rel: ra}, &Base{Name: "B", Rel: rb}
		j := &Join{Cond: cond, RightPreds: schema.AllBits(nPreds).Diff(schema.AllBits(2)), L: a, R: b}
		// The flipped join swaps the condition's arguments, and its right
		// operand A owns predicates 0..1.
		flipped := &Join{Cond: func(l, rt Tuple) bool { return cond(rt, l) },
			RightPreds: schema.AllBits(2), L: b, R: a}
		eq, _, err := Equivalent(spec, j, flipped)
		return err == nil && eq
	})
}

// zeroSide clears the score slots a relation does not own, making
// ownership explicit in the ground truth.
func zeroSide(rel *Relation, notOwned schema.Bitset) {
	for _, t := range rel.Tuples {
		notOwned.Each(func(i int) { t.Scores[i] = 0 })
	}
}

// TestProposition4CommuteMu: µp1(µp2(R)) ≡ µp2(µp1(R)) and
// σc(µp(R)) ≡ µp(σc(R)).
func TestProposition4CommuteMu(t *testing.T) {
	spec := specN()
	checkLaw(t, "prop4-mumu", func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := &Base{Name: "R", Rel: genRelation(r, nPreds, 12, 40, 0, randBitset(r, nPreds))}
		e := &Mu{P: 0, E: &Mu{P: 1, E: base}}
		swapped := &Mu{P: 1, E: &Mu{P: 0, E: base}}
		eq, _, err := Equivalent(spec, e, swapped)
		return err == nil && eq
	})
	checkLaw(t, "prop4-musigma", func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := &Base{Name: "R", Rel: genRelation(r, nPreds, 12, 40, 0, randBitset(r, nPreds))}
		cond := func(t Tuple) bool { return t.ID%3 != 0 }
		e := &Select{Cond: cond, Name: "c", E: &Mu{P: 2, E: base}}
		swapped := &Mu{P: 2, E: &Select{Cond: cond, Name: "c", E: base}}
		eq, _, err := Equivalent(spec, e, swapped)
		return err == nil && eq
	})
}

// TestProposition5PushMu: µ pushes across ⨝, ∪, ∩, −.
func TestProposition5PushMu(t *testing.T) {
	spec := specN()
	checkLaw(t, "prop5-join", func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ra := genRelation(r, nPreds, 8, 30, 0, 0)
		rb := genRelation(r, nPreds, 8, 30, 1000, 0)
		zeroSide(ra, schema.AllBits(nPreds).Diff(schema.AllBits(2)))
		zeroSide(rb, schema.AllBits(2))
		cond := func(l, rt Tuple) bool { return (l.ID+rt.ID)%2 == 0 }
		owned := schema.AllBits(nPreds).Diff(schema.AllBits(2))
		a, b := &Base{Name: "A", Rel: ra}, &Base{Name: "B", Rel: rb}
		// p0 owned by the left side: µp0(A ⨝ B) ≡ µp0(A) ⨝ B.
		e := &Mu{P: 0, E: &Join{Cond: cond, RightPreds: owned, L: a, R: b}}
		pushed := &Join{Cond: cond, RightPreds: owned, L: &Mu{P: 0, E: a}, R: b}
		eq, _, err := Equivalent(spec, e, pushed)
		return err == nil && eq
	})
	for _, kind := range []SetKind{Union, Intersect, Diff} {
		kind := kind
		for _, both := range []bool{true, false} {
			both := both
			name := fmt.Sprintf("prop5-%s-both=%v", kindName[kind], both)
			checkLaw(t, name, func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				ra := genRelation(r, nPreds, 10, 15, 0, randBitset(r, nPreds))
				rb := genRelation(r, nPreds, 10, 15, 1000, randBitset(r, nPreds))
				sharedScores(ra, rb)
				a, b := &Base{Name: "A", Rel: ra}, &Base{Name: "B", Rel: rb}
				e := &Mu{P: 1, E: &SetOp{Kind: kind, L: a, R: b}}
				// µp(R Θ S) ≡ µp(R) Θ µp(S) ≡ µp(R) Θ S.
				pushed := &SetOp{Kind: kind, L: &Mu{P: 1, E: a}, R: b}
				if both {
					pushed.R = &Mu{P: 1, E: b}
				}
				eq, _, err := Equivalent(spec, e, pushed)
				return err == nil && eq
			})
		}
	}
}

// TestProposition6MultiScan: µp1(µp2(R_∅)) ≡ µp1(R_∅) ∩ µp2(R_∅).
func TestProposition6MultiScan(t *testing.T) {
	spec := specN()
	checkLaw(t, "prop6", func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := &Base{Name: "R", Rel: genRelation(r, nPreds, 12, 40, 0, 0)}
		lhs := &Mu{P: 0, E: &Mu{P: 1, E: base}}
		rhs := &SetOp{Kind: Intersect, L: &Mu{P: 0, E: base}, R: &Mu{P: 1, E: base}}
		eq, _, err := Equivalent(spec, lhs, rhs)
		return err == nil && eq
	})
}

// TestDifferenceOrderUsesOuterP verifies the Figure 3 subtlety that − is
// ordered by the OUTER operand's predicates only.
func TestDifferenceOrderUsesOuterP(t *testing.T) {
	spec := specN()
	ra := &Relation{P: schema.Bit(0), Tuples: []Tuple{
		{ID: 1, Key: "x", Scores: []float64{0.1, 0.9, 0, 0}},
		{ID: 2, Key: "y", Scores: []float64{0.8, 0.1, 0, 0}},
	}}
	rb := &Relation{P: schema.Bit(1), Tuples: []Tuple{}}
	d := &SetOp{Kind: Diff, L: &Base{Name: "A", Rel: ra}, R: &Base{Name: "B", Rel: rb}}
	rel, err := d.Eval(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rel.P != schema.Bit(0) {
		t.Fatalf("difference P = %s, want {0}", rel.P)
	}
	sorted := rel.Sorted(spec)
	if sorted[0].Key != "y" {
		t.Errorf("difference order must use F_{P1}: got %q first", sorted[0].Key)
	}
}
