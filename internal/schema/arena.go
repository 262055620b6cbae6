package schema

import "ranksql/internal/types"

// arenaChunk sizes the arena's allocation slabs: tuples are handed out
// arenaChunk at a time, predicate/TID slots predSlabLen at a time.
const (
	arenaChunk  = 256
	predSlabLen = 4 * arenaChunk
)

// TupleArena bulk-allocates Tuples together with their Preds and TIDs
// backing arrays, replacing the three per-tuple heap allocations of
// NewTuple with slab handouts. Reset recycles every allocation at once,
// so an execution that scans thousands of tuples costs a handful of slab
// allocations the first time and none at steady state.
//
// Safety contract: tuples handed out by an arena are only valid until
// Reset. exec.Context owns the one pool (BorrowArena/ReturnArena), and
// its borrowers guarantee this: the engine's one-shot runs and paper.Run
// copy only Values and Score out of a tuple before returning the arena,
// and the optimizer's Estimator keeps every sample run until its Close.
// A suspended cursor's execution borrows none and keeps heap allocation.
type TupleArena struct {
	tupleSlabs [][]Tuple
	ts, ti     int // slab index, offset within slab
	predSlabs  [][]float64
	ps, pi     int
	tidSlabs   [][]TID
	ds, di     int
}

// Tuple hands out a zeroed Tuple struct. The caller fills in every field
// it needs; derived rows (projections) share backing slices with their
// source.
func (a *TupleArena) Tuple() *Tuple {
	if a.ts < len(a.tupleSlabs) && a.ti >= len(a.tupleSlabs[a.ts]) {
		a.ts++
		a.ti = 0
	}
	if a.ts >= len(a.tupleSlabs) {
		a.tupleSlabs = append(a.tupleSlabs, make([]Tuple, arenaChunk))
	}
	t := &a.tupleSlabs[a.ts][a.ti]
	a.ti++
	*t = Tuple{}
	return t
}

// floats hands out a zeroed n-slot slice. n is bounded by MaxBits, so it
// always fits in one slab.
func (a *TupleArena) floats(n int) []float64 {
	if n == 0 {
		return nil
	}
	if a.ps < len(a.predSlabs) && a.pi+n > len(a.predSlabs[a.ps]) {
		a.ps++
		a.pi = 0
	}
	if a.ps >= len(a.predSlabs) {
		size := predSlabLen
		if n > size {
			size = n
		}
		a.predSlabs = append(a.predSlabs, make([]float64, size))
	}
	out := a.predSlabs[a.ps][a.pi : a.pi+n : a.pi+n]
	a.pi += n
	for i := range out {
		out[i] = 0
	}
	return out
}

// tid hands out a one-element TID slice (a base tuple's identity).
func (a *TupleArena) tid(id TID) []TID {
	if a.ds < len(a.tidSlabs) && a.di >= len(a.tidSlabs[a.ds]) {
		a.ds++
		a.di = 0
	}
	if a.ds >= len(a.tidSlabs) {
		a.tidSlabs = append(a.tidSlabs, make([]TID, predSlabLen))
	}
	out := a.tidSlabs[a.ds][a.di : a.di+1 : a.di+1]
	a.di++
	out[0] = id
	return out
}

// NewTuple builds a base-table tuple from the arena; it is equivalent to
// schema.NewTuple but allocation-free at steady state.
func (a *TupleArena) NewTuple(tid TID, values []types.Value, npreds int) *Tuple {
	t := a.Tuple()
	t.Values = values
	t.Preds = a.floats(npreds)
	t.TIDs = a.tid(tid)
	return t
}

// Reset recycles every allocation since the last Reset. The caller must
// guarantee that no tuple handed out before the Reset is still reachable.
func (a *TupleArena) Reset() {
	a.ts, a.ti = 0, 0
	a.ps, a.pi = 0, 0
	a.ds, a.di = 0, 0
}
