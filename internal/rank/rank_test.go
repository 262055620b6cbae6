package rank

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ranksql/internal/schema"
	"ranksql/internal/types"
)

func mkPreds(n int) []*Predicate {
	out := make([]*Predicate, n)
	for i := range out {
		out[i] = &Predicate{Index: i, Name: "p", Cost: 1}
	}
	return out
}

func TestSumScoringAndBounds(t *testing.T) {
	s := NewSum(3)
	if s.N() != 3 {
		t.Fatal("arity")
	}
	preds := []float64{0.2, 0.5, 0.9}
	if got := s.Score(preds); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("Score = %v", got)
	}
	maxes := []float64{1, 1, 1}
	// Only p0 evaluated: 0.2 + 1 + 1.
	if got := s.UpperBound(preds, schema.Bit(0), maxes); math.Abs(got-2.2) > 1e-12 {
		t.Errorf("UpperBound = %v", got)
	}
	// All evaluated equals Score.
	if got := s.UpperBound(preds, schema.AllBits(3), maxes); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("UpperBound(all) = %v", got)
	}
}

func TestWeightedSum(t *testing.T) {
	s := NewWeightedSum([]float64{2, 0.5})
	if got := s.Score([]float64{1, 1}); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("weighted score = %v", got)
	}
	if got := s.UpperBound([]float64{0.5, 0}, schema.Bit(0), []float64{1, 1}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("weighted UB = %v", got)
	}
}

// TestUpperBoundDominates: for every monotone scoring function, F_P[t] ≥
// F[t] for any completion — the Ranking Principle's soundness.
func TestUpperBoundDominates(t *testing.T) {
	fns := map[string]ScoringFunc{
		"sum":     NewSum(4),
		"product": NewProduct(4),
		"min":     NewMin(4),
		"max":     NewMax(4),
		"wsum":    NewWeightedSum([]float64{1, 2, 0.5, 3}),
	}
	maxes := []float64{1, 1, 1, 1}
	for name, f := range fns {
		f := f
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			scores := make([]float64, 4)
			for i := range scores {
				scores[i] = r.Float64()
			}
			var p schema.Bitset
			for i := 0; i < 4; i++ {
				if r.Intn(2) == 0 {
					p = p.With(i)
				}
			}
			return f.UpperBound(scores, p, maxes) >= f.Score(scores)-1e-12
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestUpperBoundMonotoneInP: evaluating more predicates can only tighten
// (lower) the bound.
func TestUpperBoundMonotoneInP(t *testing.T) {
	f := NewSum(4)
	maxes := []float64{1, 1, 1, 1}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		scores := make([]float64, 4)
		for i := range scores {
			scores[i] = r.Float64()
		}
		var p schema.Bitset
		for i := 0; i < 4; i++ {
			if r.Intn(2) == 0 {
				p = p.With(i)
			}
		}
		extra := r.Intn(4)
		return f.UpperBound(scores, p.With(extra), maxes) <= f.UpperBound(scores, p, maxes)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := NewSpec(NewSum(2), mkPreds(3)); err == nil {
		t.Error("arity mismatch accepted")
	}
	bad := mkPreds(2)
	bad[1].Index = 5
	if _, err := NewSpec(NewSum(2), bad); err == nil {
		t.Error("non-dense indexes accepted")
	}
	good, err := NewSpec(NewSum(2), mkPreds(2))
	if err != nil {
		t.Fatal(err)
	}
	if good.CeilingScore() != 2 {
		t.Errorf("ceiling = %v, want 2", good.CeilingScore())
	}
	if good.AllEvaluated() != schema.AllBits(2) {
		t.Error("AllEvaluated wrong")
	}
}

func TestSpecRescore(t *testing.T) {
	spec := MustSpec(NewSum(2), mkPreds(2))
	tp := &schema.Tuple{Preds: []float64{0.3, 0.7}}
	tp.Evaluated = schema.Bit(0)
	spec.Rescore(tp)
	if math.Abs(tp.Score-1.3) > 1e-12 {
		t.Errorf("score = %v, want 1.3", tp.Score)
	}
	tp.Evaluated = schema.AllBits(2)
	spec.Rescore(tp)
	if math.Abs(tp.Score-1.0) > 1e-12 {
		t.Errorf("score = %v, want 1.0", tp.Score)
	}
}

func TestPredicateTables(t *testing.T) {
	p := &Predicate{
		Index: 0,
		Args: []ColumnRef{
			{Table: "h", Column: "addr"},
			{Table: "r", Column: "addr"},
			{Table: "h", Column: "price"},
		},
	}
	tabs := p.Tables()
	if len(tabs) != 2 || tabs[0] != "h" || tabs[1] != "r" {
		t.Errorf("Tables = %v", tabs)
	}
}

func TestMaxValDefaults(t *testing.T) {
	preds := mkPreds(2)
	preds[0].MaxVal = 0 // should default to 1
	preds[1].MaxVal = 5
	spec := MustSpec(NewSum(2), preds)
	if spec.maxes[0] != 1 || spec.maxes[1] != 5 {
		t.Errorf("maxes = %v", spec.maxes)
	}
	if spec.CeilingScore() != 6 {
		t.Errorf("ceiling = %v, want 6", spec.CeilingScore())
	}
}

func TestEmptySpec(t *testing.T) {
	s := EmptySpec()
	if s.N() != 0 || s.CeilingScore() != 0 {
		t.Error("empty spec misbehaves")
	}
	tp := &schema.Tuple{}
	s.Rescore(tp) // must not panic
	_ = types.Null()
}
