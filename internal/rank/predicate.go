package rank

import (
	"fmt"
	"sort"
	"strings"

	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// ColumnRef names a (table, column) pair a predicate reads. References are
// resolved to positions at operator-bind time against the operator's input
// schema.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders "t.col".
func (c ColumnRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// ScoreFn computes a ranking predicate's score from its argument values.
// Implementations must be deterministic and return values in [0, MaxVal].
type ScoreFn func(args []types.Value) float64

// Predicate is a ranking predicate p_i of the query's scoring function
// F(p1, ..., pn). A predicate is a (possibly expensive) scored function over
// attributes of one or more relations: rank-selection predicates read one
// relation, rank-join predicates read several.
type Predicate struct {
	// Index is the predicate's position within the scoring function.
	Index int
	// Name identifies the predicate in plans, e.g. "f1(A.p1)".
	Name string
	// Scorer is the registered scoring-function name ("f1"); the
	// optimizer matches it (plus the argument columns) against rank
	// indexes in the catalog to discover rank-scan access paths.
	Scorer string
	// Args are the columns the predicate reads.
	Args []ColumnRef
	// Fn computes the score.
	Fn ScoreFn
	// Cost is the predicate's per-evaluation cost in abstract units
	// (the paper's C_i). It drives the cost model and the executor's
	// PredCost accounting.
	Cost float64
	// MaxVal is the predicate's maximal possible value (1 by default).
	MaxVal float64
}

// Tables returns the sorted set of distinct tables the predicate reads.
func (p *Predicate) Tables() []string {
	seen := map[string]bool{}
	for _, a := range p.Args {
		if a.Table != "" {
			seen[a.Table] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// IsJoinPredicate reports whether the predicate spans multiple relations
// (a rank-join predicate, like p2: close(h.addr, r.addr) in Example 1).
func (p *Predicate) IsJoinPredicate() bool { return len(p.Tables()) > 1 }

// String implements fmt.Stringer.
func (p *Predicate) String() string {
	if p.Name != "" {
		return p.Name
	}
	args := make([]string, len(p.Args))
	for i, a := range p.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("p%d(%s)", p.Index+1, strings.Join(args, ","))
}

// Spec bundles a query's ranking dimension: the scoring function F and its
// predicates p1..pn. It provides the upper-bound computation every operator
// needs to maintain rank-relation order.
type Spec struct {
	F     ScoringFunc
	Preds []*Predicate

	maxes []float64
}

// NewSpec builds a Spec, validating that predicate indexes are dense and
// match F's arity.
func NewSpec(f ScoringFunc, preds []*Predicate) (*Spec, error) {
	if f.N() != len(preds) {
		return nil, fmt.Errorf("rank: scoring function arity %d != %d predicates", f.N(), len(preds))
	}
	if len(preds) > schema.MaxBits {
		return nil, fmt.Errorf("rank: %d predicates exceeds limit %d", len(preds), schema.MaxBits)
	}
	maxes := make([]float64, len(preds))
	for i, p := range preds {
		if p.Index != i {
			return nil, fmt.Errorf("rank: predicate %q has index %d, want %d", p, p.Index, i)
		}
		if p.MaxVal == 0 {
			p.MaxVal = 1
		}
		maxes[i] = p.MaxVal
	}
	return &Spec{F: f, Preds: preds, maxes: maxes}, nil
}

// MustSpec is NewSpec that panics on error; for tests and internal plans.
func MustSpec(f ScoringFunc, preds []*Predicate) *Spec {
	s, err := NewSpec(f, preds)
	if err != nil {
		panic(err)
	}
	return s
}

// EmptySpec returns a spec with no ranking predicates (pure Boolean query).
func EmptySpec() *Spec {
	return &Spec{F: NewSum(0), Preds: nil, maxes: nil}
}

// N returns the number of ranking predicates.
func (s *Spec) N() int { return len(s.Preds) }

// Maxes returns the per-predicate maximal values.
func (s *Spec) Maxes() []float64 { return s.maxes }

// AllEvaluated is the bitset with every predicate evaluated.
func (s *Spec) AllEvaluated() schema.Bitset { return schema.AllBits(len(s.Preds)) }

// UpperBound computes F_P for the given evaluated set and scores.
func (s *Spec) UpperBound(preds []float64, evaluated schema.Bitset) float64 {
	return s.F.UpperBound(preds, evaluated, s.maxes)
}

// Rescore recomputes and caches t.Score = F_P[t] from the tuple's current
// evaluated set. Every operator that changes a tuple's evaluated set calls
// this before emitting the tuple.
func (s *Spec) Rescore(t *schema.Tuple) {
	t.Score = s.F.UpperBound(t.Preds, t.Evaluated, s.maxes)
}

// CeilingScore is the score of a tuple with no predicates evaluated — the
// global upper bound F_∅ shared by every tuple of an unranked stream.
func (s *Spec) CeilingScore() float64 {
	return s.F.UpperBound(nil, 0, s.maxes)
}

// PredsOnTables returns the bitset of predicates evaluable given the set of
// available relations (every referenced table present). Used by the
// optimizer's dimension enumeration ("all predicates that are evaluable on
// SR", Figure 8 line 6).
func (s *Spec) PredsOnTables(tables map[string]bool) schema.Bitset {
	var b schema.Bitset
	for i, p := range s.Preds {
		ok := true
		for _, t := range p.Tables() {
			if !tables[t] {
				ok = false
				break
			}
		}
		if ok {
			b = b.With(i)
		}
	}
	return b
}
