package exec

import (
	"fmt"
	"math"
	"time"

	"ranksql/internal/rank"
	"ranksql/internal/schema"
)

// Rank is the new µ_p operator — the critical basis of the rank-relational
// algebra (§3.2). It evaluates one additional ranking predicate p on a
// stream ordered by F_P and produces the stream ordered by F_{P∪{p}}.
//
// Incremental execution (§4.1): a drawn tuple cannot be emitted
// immediately, because a later tuple t' with lower F_P may end up with a
// higher F_{P∪{p}}. Tuples are therefore buffered in a ranking queue
// (priority queue on the new upper bound); the queue head t is emitted once
// F_{P∪{p}}[t] ≥ τ, where τ is the F_P bound of the most recently drawn
// input tuple — an upper bound on everything the child can still produce.
type Rank struct {
	opBase
	child Operator
	pred  *rank.Predicate

	bp        *boundPred
	queue     tupleHeap
	childDone bool
	lastUB    float64
}

// NewRank builds µ_pred(child).
func NewRank(child Operator, pred *rank.Predicate) (*Rank, error) {
	r := &Rank{child: child, pred: pred}
	r.sch = child.Schema()
	bp, err := bindPred(pred, r.sch, false)
	if err != nil {
		return nil, err
	}
	r.bp = bp
	return r, nil
}

// Open implements Operator.
func (r *Rank) Open(ctx *Context) error {
	if ctx.Profile {
		defer r.prof(time.Now())
	}
	r.reset()
	r.queue = tupleHeap{}
	r.childDone = false
	r.lastUB = math.Inf(1)
	return r.child.Open(ctx)
}

// Next implements Operator.
func (r *Rank) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer r.prof(time.Now())
	}
	for {
		if err := ctx.interrupted(); err != nil {
			return nil, err
		}
		// Emit the queue head when it dominates all possible future
		// inputs: future tuples t'' have F_P[t''] ≤ τ and hence
		// F_{P∪{p}}[t''] ≤ τ.
		if !r.queue.empty() && (r.childDone || r.queue.top().Score >= r.lastUB) {
			ctx.Stats.buffer(-1)
			return r.emit(r.queue.pop()), nil
		}
		if r.childDone {
			return nil, nil
		}
		t, err := r.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if t == nil {
			r.childDone = true
			r.lastUB = math.Inf(-1)
			continue
		}
		r.lastUB = t.Score
		ctx.evalPred(r.bp, t)
		r.queue.push(t)
		ctx.Stats.buffer(1)
	}
}

// Close implements Operator.
func (r *Rank) Close() error {
	r.queue = tupleHeap{}
	return r.child.Close()
}

// Evaluated implements Operator.
func (r *Rank) Evaluated() schema.Bitset {
	return r.child.Evaluated().With(r.pred.Index)
}

// Name implements Operator.
func (r *Rank) Name() string { return fmt.Sprintf("rank_%s", r.pred) }

// Children implements Operator.
func (r *Rank) Children() []Operator { return []Operator{r.child} }
