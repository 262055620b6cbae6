package exec

import (
	"fmt"
	"math"
	"time"

	"ranksql/internal/expr"
	"ranksql/internal/schema"
)

// RankJoin is the rank-join (Ilyas et al., adopted as the physical ./ of
// the rank-relational algebra, §4.2). Both inputs stream in
// non-increasing upper-bound order. Each side keeps the tuples it has
// seen in hash buckets on its join key; a new tuple probes the opposite
// side's bucket, and matches enter a ranking queue. Keyed, it is the hash
// rank-join HRJN; keyless, every tuple lands in one bucket, so it is the
// nested-loops rank-join NRJN and the condition decides. A result is
// emitted once its exact combined upper bound F_{P1∪P2} dominates the
// threshold
//
//	T = max( UB(firstL ⊕ lastR), UB(lastL ⊕ firstR) )
//
// which bounds every join result not yet produced.
type RankJoin struct {
	joinCommon

	queue           tupleHeap
	lSeen, rSeen    map[uint64][]*schema.Tuple
	firstL, lastL   *schema.Tuple
	firstR, lastR   *schema.Tuple
	lDone, rDone    bool
	drawLeft        bool
	scratch         []float64
	nothingJoinable bool
}

// NewHRJN builds the hash rank-join (keyed mode) on leftKey = rightKey
// with an optional residual condition over the concatenated schema.
func NewHRJN(left, right Operator, leftKey, rightKey *expr.Col, extra expr.Expr) (*RankJoin, error) {
	return newRankJoin(left, right, leftKey, rightKey, extra)
}

// NewNRJN builds the nested-loops rank-join (keyless mode) on an
// arbitrary condition over the concatenated schema. cond may not be nil
// (a rank Cartesian product would never terminate early; use classic
// operators for that).
func NewNRJN(left, right Operator, cond expr.Expr) (*RankJoin, error) {
	if cond == nil {
		return nil, fmt.Errorf("exec: NRJN requires a join condition")
	}
	return newRankJoin(left, right, nil, nil, cond)
}

func newRankJoin(left, right Operator, leftKey, rightKey *expr.Col, cond expr.Expr) (*RankJoin, error) {
	j := &RankJoin{}
	if err := j.initJoin(left, right, leftKey, rightKey, cond, "HRJN"); err != nil {
		return nil, err
	}
	return j, nil
}

// Open implements Operator.
func (j *RankJoin) Open(ctx *Context) error {
	if ctx.Profile {
		defer j.prof(time.Now())
	}
	j.reset()
	j.queue = tupleHeap{}
	j.lSeen = map[uint64][]*schema.Tuple{}
	j.rSeen = map[uint64][]*schema.Tuple{}
	j.firstL, j.lastL, j.firstR, j.lastR = nil, nil, nil, nil
	j.lDone, j.rDone = false, false
	j.drawLeft = true
	j.nothingJoinable = false
	j.scratch = make([]float64, ctx.Spec.N())
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	return j.right.Open(ctx)
}

// combinedUB computes the F_{P1∪P2} upper bound of a hypothetical join of
// l and r without materializing the concatenation.
func (j *RankJoin) combinedUB(ctx *Context, l, r *schema.Tuple) float64 {
	ev := l.Evaluated.Union(r.Evaluated)
	l.Evaluated.Each(func(i int) { j.scratch[i] = l.Preds[i] })
	r.Evaluated.Each(func(i int) { j.scratch[i] = r.Preds[i] })
	return ctx.Spec.UpperBound(j.scratch, ev)
}

// threshold computes the bound T on all future join results.
func (j *RankJoin) threshold(ctx *Context) float64 {
	if j.firstL == nil || j.firstR == nil {
		// One side has produced nothing yet.
		if (j.lDone && j.firstL == nil) || (j.rDone && j.firstR == nil) {
			return math.Inf(-1) // empty side: no future results at all
		}
		return math.Inf(1)
	}
	t := math.Inf(-1)
	if !j.rDone {
		t = math.Max(t, j.combinedUB(ctx, j.firstL, j.lastR))
	}
	if !j.lDone {
		t = math.Max(t, j.combinedUB(ctx, j.lastL, j.firstR))
	}
	return t
}

// pickSide chooses which input to draw from next: the side whose last
// upper bound is larger (tending to tighten the threshold fastest), with
// round-robin as tie-break and exhaustion handling.
func (j *RankJoin) pickSide() (left bool, any bool) {
	switch {
	case j.lDone && j.rDone:
		return false, false
	case j.lDone:
		return false, true
	case j.rDone:
		return true, true
	case j.lastL == nil:
		return true, true
	case j.lastR == nil:
		return false, true
	case j.lastL.Score > j.lastR.Score:
		return true, true
	case j.lastR.Score > j.lastL.Score:
		return false, true
	default:
		j.drawLeft = !j.drawLeft
		return j.drawLeft, true
	}
}

// Next implements Operator.
func (j *RankJoin) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer j.prof(time.Now())
	}
	for {
		if err := ctx.interrupted(); err != nil {
			return nil, err
		}
		if !j.queue.empty() {
			if t := j.queue.top(); t.Score >= j.threshold(ctx) {
				ctx.Stats.buffer(-1)
				return j.emit(j.queue.pop()), nil
			}
		}
		if j.nothingJoinable {
			return nil, nil
		}
		fromLeft, ok := j.pickSide()
		if !ok {
			// Both exhausted: drain the queue.
			if j.queue.empty() {
				return nil, nil
			}
			ctx.Stats.buffer(-1)
			return j.emit(j.queue.pop()), nil
		}
		var src Operator
		if fromLeft {
			src = j.left
		} else {
			src = j.right
		}
		t, err := src.Next(ctx)
		if err != nil {
			return nil, err
		}
		if t == nil {
			if fromLeft {
				j.lDone = true
				if j.firstL == nil {
					j.nothingJoinable = true
				}
			} else {
				j.rDone = true
				if j.firstR == nil {
					j.nothingJoinable = true
				}
			}
			continue
		}
		if fromLeft {
			if j.firstL == nil {
				j.firstL = t
			}
			j.lastL = t
		} else {
			if j.firstR == nil {
				j.firstR = t
			}
			j.lastR = t
		}
		if err := j.probe(ctx, t, fromLeft); err != nil {
			return nil, err
		}
	}
}

// probe puts t into its side's bucket and joins it against the opposite
// side's tuples in the same bucket; results enter the ranking queue.
func (j *RankJoin) probe(ctx *Context, t *schema.Tuple, fromLeft bool) error {
	h, ok := j.keyHash(t, fromLeft)
	if !ok {
		return nil
	}
	own, other := j.lSeen, j.rSeen
	if !fromLeft {
		own, other = other, own
	}
	own[h] = append(own[h], t)
	ctx.Stats.buffer(1)
	for _, m := range other[h] {
		l, r := t, m
		if !fromLeft {
			l, r = m, t
		}
		if !j.sameKey(ctx, l, r) {
			continue
		}
		res, err := j.combine(ctx, l, r)
		if err != nil {
			return err
		}
		if res != nil {
			j.queue.push(res)
			ctx.Stats.buffer(1)
		}
	}
	return nil
}

// Close implements Operator.
func (j *RankJoin) Close() error {
	j.queue = tupleHeap{}
	j.lSeen, j.rSeen = nil, nil
	return j.closeInputs()
}

// Name implements Operator.
func (j *RankJoin) Name() string {
	if j.keyed() {
		return "HRJN"
	}
	return "NRJN"
}
