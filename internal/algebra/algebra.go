// Package algebra implements the logical rank-relational algebra of §3 as
// a directly-interpretable semantic model: rank-relations, the rank
// operator µ, the rank-aware extensions of σ, ∪, ∩, −, ⨝ (Figure 3), and
// the algebraic laws of Figure 5 (Propositions 1–6) as tree rewrites.
//
// The model is deliberately independent of the executor: relations are
// fully materialized and operators are evaluated by their definitions, not
// incrementally. Tests use it two ways: this package's property tests
// verify the laws themselves (each rewrite preserves membership and
// order), and internal/paper's TestQMatchesAlgebraOracle uses it as the
// oracle for the paper's query Q, against which every Figure 11 plan and
// the optimizer's plan are checked on the executor.
package algebra

import (
	"fmt"
	"sort"
	"strings"

	"ranksql/internal/rank"
	"ranksql/internal/schema"
)

// Tuple is a logical tuple: an identity, a membership key (the attribute
// values, abstracted to a comparable string), and the ground-truth scores
// of every ranking predicate (the scores exist platonically; evaluation
// reveals them).
type Tuple struct {
	ID     schema.TID
	Key    string
	Scores []float64
}

// Relation is a rank-relation R_P: tuples plus the evaluated predicate set
// P. The order property is not stored — it is induced by P and the scoring
// function, and realized by Sorted.
type Relation struct {
	Tuples []Tuple
	P      schema.Bitset
}

// Expr is a logical algebra expression over rank-relations.
type Expr interface {
	// Eval computes the rank-relation the expression denotes, under the
	// given ranking specification.
	Eval(spec *rank.Spec) (*Relation, error)
	// String renders the expression.
	String() string
}

// Base is a leaf: a named input rank-relation.
type Base struct {
	Name string
	Rel  *Relation
}

// Eval implements Expr.
func (b *Base) Eval(*rank.Spec) (*Relation, error) { return b.Rel, nil }

// String implements Expr.
func (b *Base) String() string {
	if b.Rel.P.Empty() {
		return b.Name
	}
	return fmt.Sprintf("%s_%s", b.Name, b.Rel.P)
}

// Mu is the rank operator µ_p: it evaluates predicate p, extending P.
type Mu struct {
	P int
	E Expr
}

// Eval implements Expr.
func (m *Mu) Eval(spec *rank.Spec) (*Relation, error) {
	in, err := m.E.Eval(spec)
	if err != nil {
		return nil, err
	}
	if m.P < 0 || m.P >= spec.N() {
		return nil, fmt.Errorf("algebra: µ predicate index %d out of range", m.P)
	}
	return &Relation{Tuples: in.Tuples, P: in.P.With(m.P)}, nil
}

// String implements Expr.
func (m *Mu) String() string { return fmt.Sprintf("µp%d(%s)", m.P+1, m.E) }

// Select is the rank-aware σ_c: membership restriction, order preserved.
type Select struct {
	Cond func(t Tuple) bool
	Name string
	E    Expr
}

// Eval implements Expr.
func (s *Select) Eval(spec *rank.Spec) (*Relation, error) {
	in, err := s.E.Eval(spec)
	if err != nil {
		return nil, err
	}
	out := &Relation{P: in.P}
	for _, t := range in.Tuples {
		if s.Cond(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

// String implements Expr.
func (s *Select) String() string { return fmt.Sprintf("σ%s(%s)", s.Name, s.E) }

// SetOp is ∪, ∩ or − with Figure 3 semantics.
type SetOp struct {
	Kind SetKind
	L, R Expr
}

// SetKind selects the set operation.
type SetKind int

// Set operation kinds.
const (
	Union SetKind = iota
	Intersect
	Diff
)

func (k SetKind) String() string {
	switch k {
	case Union:
		return "∪"
	case Intersect:
		return "∩"
	default:
		return "−"
	}
}

// Eval implements Expr.
func (s *SetOp) Eval(spec *rank.Spec) (*Relation, error) {
	l, err := s.L.Eval(spec)
	if err != nil {
		return nil, err
	}
	r, err := s.R.Eval(spec)
	if err != nil {
		return nil, err
	}
	switch s.Kind {
	case Union:
		out := &Relation{P: l.P.Union(r.P)}
		seen := map[string]bool{}
		for _, t := range append(append([]Tuple{}, l.Tuples...), r.Tuples...) {
			if !seen[t.Key] {
				seen[t.Key] = true
				out.Tuples = append(out.Tuples, t)
			}
		}
		return out, nil
	case Intersect:
		out := &Relation{P: l.P.Union(r.P)}
		inR := map[string]bool{}
		for _, t := range r.Tuples {
			inR[t.Key] = true
		}
		for _, t := range l.Tuples {
			if inR[t.Key] {
				out.Tuples = append(out.Tuples, t)
			}
		}
		return out, nil
	default: // Diff: membership l − r, order by l's P only.
		out := &Relation{P: l.P}
		inR := map[string]bool{}
		for _, t := range r.Tuples {
			inR[t.Key] = true
		}
		for _, t := range l.Tuples {
			if !inR[t.Key] {
				out.Tuples = append(out.Tuples, t)
			}
		}
		return out, nil
	}
}

// String implements Expr.
func (s *SetOp) String() string { return fmt.Sprintf("(%s %s %s)", s.L, s.Kind, s.R) }

// Join is the rank-aware ⨝_c. Joined tuples concatenate identities and
// keys; ground-truth scores merge by explicit predicate attribution:
// RightPreds names the predicate indexes owned by the right operand
// (ranking predicates belong to the relations carrying their argument
// attributes).
type Join struct {
	Cond       func(l, r Tuple) bool
	Name       string
	RightPreds schema.Bitset
	L, R       Expr
}

// Eval implements Expr.
func (j *Join) Eval(spec *rank.Spec) (*Relation, error) {
	l, err := j.L.Eval(spec)
	if err != nil {
		return nil, err
	}
	r, err := j.R.Eval(spec)
	if err != nil {
		return nil, err
	}
	out := &Relation{P: l.P.Union(r.P)}
	for _, lt := range l.Tuples {
		for _, rt := range r.Tuples {
			if !j.Cond(lt, rt) {
				continue
			}
			scores := make([]float64, len(lt.Scores))
			copy(scores, lt.Scores)
			j.RightPreds.Each(func(i int) {
				if i < len(rt.Scores) {
					scores[i] = rt.Scores[i]
				}
			})
			out.Tuples = append(out.Tuples, Tuple{
				// Identity and key composition are symmetric and
				// associative so commuted/re-associated joins denote
				// the same tuples.
				ID:     lt.ID + rt.ID,
				Key:    joinKey(lt.Key, rt.Key),
				Scores: scores,
			})
		}
	}
	return out, nil
}

// String implements Expr.
func (j *Join) String() string { return fmt.Sprintf("(%s ⨝%s %s)", j.L, j.Name, j.R) }

// joinKey composes tuple keys as a sorted multiset so that join identity is
// invariant under commutation and re-association.
func joinKey(a, b string) string {
	parts := append(strings.Split(a, "⨝"), strings.Split(b, "⨝")...)
	sort.Strings(parts)
	return strings.Join(parts, "⨝")
}

// upperBound computes F_P[t] for a tuple.
func upperBound(spec *rank.Spec, t Tuple, p schema.Bitset) float64 {
	return spec.UpperBound(t.Scores, p)
}

// Sorted returns the relation's tuples in the order the rank-relation
// semantics induce: non-increasing F_P, ties by ID.
func (r *Relation) Sorted(spec *rank.Spec) []Tuple {
	out := append([]Tuple(nil), r.Tuples...)
	sort.SliceStable(out, func(i, j int) bool {
		si := upperBound(spec, out[i], r.P)
		sj := upperBound(spec, out[j], r.P)
		if si != sj {
			return si > sj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Equivalent reports whether two expressions denote the same
// rank-relation: identical membership (by key) AND identical order, where
// order is compared by the sequence of upper-bound scores of the sorted
// tuples (ties may permute; scores must match position-wise).
func Equivalent(spec *rank.Spec, a, b Expr) (bool, string, error) {
	ra, err := a.Eval(spec)
	if err != nil {
		return false, "", err
	}
	rb, err := b.Eval(spec)
	if err != nil {
		return false, "", err
	}
	sa := ra.Sorted(spec)
	sb := rb.Sorted(spec)
	if len(sa) != len(sb) {
		return false, fmt.Sprintf("cardinality %d vs %d", len(sa), len(sb)), nil
	}
	// Membership.
	keys := map[string]int{}
	for _, t := range sa {
		keys[t.Key]++
	}
	for _, t := range sb {
		keys[t.Key]--
	}
	for k, n := range keys {
		if n != 0 {
			return false, "membership differs at " + k, nil
		}
	}
	// Order: position-wise score equality of the induced order.
	for i := range sa {
		x := upperBound(spec, sa[i], ra.P)
		y := upperBound(spec, sb[i], rb.P)
		if diff := x - y; diff > 1e-9 || diff < -1e-9 {
			return false, fmt.Sprintf("order differs at position %d: %g vs %g", i, x, y), nil
		}
	}
	return true, "", nil
}

// String renders a relation for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P=%s [", r.P)
	for i, t := range r.Tuples {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Key)
	}
	b.WriteByte(']')
	return b.String()
}
