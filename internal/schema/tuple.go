package schema

import (
	"fmt"
	"strings"

	"ranksql/internal/types"
)

// TID identifies a base-table tuple. Join results concatenate the TIDs of
// their constituents into a composite identity used for deterministic
// tie-breaking and duplicate detection.
type TID uint64

// Tuple is a row flowing through the executor, augmented with the ranking
// state of the rank-relational model:
//
//   - Values: the membership property (attribute values).
//   - Preds:  scores of ranking predicates evaluated so far, indexed by the
//     predicate's position in the query's scoring function. Slots for
//     unevaluated predicates are unspecified.
//   - Evaluated: the set P of evaluated predicates.
//   - Score: cached maximal-possible score F_P[t] under the query's scoring
//     function; maintained by operators whenever Evaluated changes.
//   - TIDs: identities of the base tuples this row derives from, in the
//     order the relations entered the plan.
type Tuple struct {
	Values    []types.Value
	Preds     []float64
	Evaluated Bitset
	Score     float64
	TIDs      []TID
}

// NewTuple builds a base-table tuple with no predicates evaluated.
func NewTuple(tid TID, values []types.Value, npreds int) *Tuple {
	return &Tuple{
		Values: values,
		Preds:  make([]float64, npreds),
		TIDs:   []TID{tid},
	}
}

// Clone returns a deep copy of the tuple.
func (t *Tuple) Clone() *Tuple {
	nt := &Tuple{
		Values:    make([]types.Value, len(t.Values)),
		Preds:     make([]float64, len(t.Preds)),
		Evaluated: t.Evaluated,
		Score:     t.Score,
		TIDs:      make([]TID, len(t.TIDs)),
	}
	copy(nt.Values, t.Values)
	copy(nt.Preds, t.Preds)
	copy(nt.TIDs, t.TIDs)
	return nt
}

// Concat joins two tuples (for join results): values and TIDs are
// concatenated, predicate scores merged, evaluated sets unioned. The Score
// field is NOT set; the caller must recompute it under the query's scoring
// function.
func Concat(l, r *Tuple) *Tuple {
	n := len(l.Preds)
	if len(r.Preds) > n {
		n = len(r.Preds)
	}
	nt := &Tuple{
		Values:    make([]types.Value, 0, len(l.Values)+len(r.Values)),
		Preds:     make([]float64, n),
		Evaluated: l.Evaluated.Union(r.Evaluated),
		TIDs:      make([]TID, 0, len(l.TIDs)+len(r.TIDs)),
	}
	nt.Values = append(nt.Values, l.Values...)
	nt.Values = append(nt.Values, r.Values...)
	nt.TIDs = append(nt.TIDs, l.TIDs...)
	nt.TIDs = append(nt.TIDs, r.TIDs...)
	copy(nt.Preds, l.Preds)
	r.Evaluated.Each(func(i int) { nt.Preds[i] = r.Preds[i] })
	return nt
}

// AppendValueKey appends a binary key of the attribute values to dst; used
// for value-based duplicate elimination (set semantics on values). Two
// tuples share a key exactly when their values pairwise Compare equal, as
// SQL = decides (types.Value.AppendKey).
func (t *Tuple) AppendValueKey(dst []byte) []byte {
	for _, v := range t.Values {
		dst = v.AppendKey(dst)
	}
	return dst
}

// Less orders tuples by descending Score with ascending TID tie-break;
// "less" means "ranks earlier" (higher score first). This is the order
// relationship <_{R_P} of Definition 1 applied descending for output.
func (t *Tuple) Less(o *Tuple) bool {
	if t.Score != o.Score {
		return t.Score > o.Score
	}
	n := len(t.TIDs)
	if len(o.TIDs) < n {
		n = len(o.TIDs)
	}
	for i := 0; i < n; i++ {
		if t.TIDs[i] != o.TIDs[i] {
			return t.TIDs[i] < o.TIDs[i]
		}
	}
	return len(t.TIDs) < len(o.TIDs)
}

// String renders the tuple with its ranking state, e.g.
// "[1 2]{score=1.55 P={0,1}}".
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range t.Values {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.String())
	}
	fmt.Fprintf(&b, "]{score=%g P=%s}", t.Score, t.Evaluated)
	return b.String()
}
