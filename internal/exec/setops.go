package exec

import (
	"fmt"
	"math"
	"time"

	"ranksql/internal/schema"
)

// The rank-aware set operators implement Figure 3's semantics under set
// semantics on attribute values:
//
//	union:        t ∈ R ∪ S;          order by F_{P1∪P2}
//	intersection: t ∈ R ∩ S;          order by F_{P1∪P2}
//	difference:   t ∈ R, t ∉ S;       order by F_{P1} (outer input's order)
//
// The inputs stream in their own rank orders. To order outputs by
// F_{P1∪P2}, an operator needs the scores of all predicates in P1∪P2 for
// each output tuple; for a tuple arriving on only one side the missing
// predicates are evaluated by the operator itself (paying their cost).
// Having the missing scores also lets the operator decide membership
// incrementally, exactly as §4.2 sketches for ∩: once the other side's
// stream bound drops below the tuple's upper bound on that side, a
// duplicate can no longer arrive.

// setOpBase holds shared state for the rank-aware set operators.
type setOpBase struct {
	opBase
	left, right Operator

	lp, rp       schema.Bitset // plan-declared evaluated sets P1, P2
	missL, missR []*boundPred  // predicates to complete on L-only / R-only tuples
	lDone, rDone bool
	lastL, lastR float64
	drawLeft     bool
}

func (s *setOpBase) initSetOp(left, right Operator) error {
	if left.Schema().Len() != right.Schema().Len() {
		return fmt.Errorf("exec: set operands not union-compatible: %s vs %s",
			left.Schema(), right.Schema())
	}
	s.left, s.right = left, right
	s.sch = left.Schema()
	return nil
}

func (s *setOpBase) openBase(ctx *Context) error {
	s.reset()
	// Clamp to the spec's predicate universe: fully-sorting operators
	// report the all-ones sentinel ("everything evaluated"), whose bits
	// beyond len(Spec.Preds) must not be dereferenced below.
	all := ctx.Spec.AllEvaluated()
	s.lp = s.left.Evaluated().Intersect(all)
	s.rp = s.right.Evaluated().Intersect(all)
	s.lDone, s.rDone = false, false
	s.lastL, s.lastR = math.Inf(1), math.Inf(1)
	s.drawLeft = false
	// Bind, against the (shared) output schema, the predicates each side
	// may be missing relative to P1 ∪ P2. Set operands carry different
	// qualifiers over the same columns, so bind by column name.
	both := s.lp.Union(s.rp)
	s.missL, s.missR = nil, nil
	var err error
	both.Diff(s.lp).Each(func(i int) {
		if err != nil {
			return
		}
		var bp *boundPred
		bp, err = bindPred(ctx.Spec.Preds[i], s.sch, true)
		s.missL = append(s.missL, bp)
	})
	both.Diff(s.rp).Each(func(i int) {
		if err != nil {
			return
		}
		var bp *boundPred
		bp, err = bindPred(ctx.Spec.Preds[i], s.sch, true)
		s.missR = append(s.missR, bp)
	})
	if err != nil {
		return err
	}
	if err := s.left.Open(ctx); err != nil {
		return err
	}
	return s.right.Open(ctx)
}

// draw pulls the next tuple, alternating sides; returns the tuple, which
// side it came from, and whether anything remains.
func (s *setOpBase) draw(ctx *Context) (t *schema.Tuple, fromLeft bool, ok bool, err error) {
	for {
		if s.lDone && s.rDone {
			return nil, false, false, nil
		}
		// Prefer the side with the higher pending bound so the combined
		// threshold falls as fast as possible.
		fromLeft = !s.drawLeft
		if s.lDone {
			fromLeft = false
		} else if s.rDone {
			fromLeft = true
		} else if s.lastL > s.lastR {
			fromLeft = true
		} else if s.lastR > s.lastL {
			fromLeft = false
		}
		s.drawLeft = fromLeft
		var src Operator
		if fromLeft {
			src = s.left
		} else {
			src = s.right
		}
		t, err = src.Next(ctx)
		if err != nil {
			return nil, false, false, err
		}
		if t == nil {
			if fromLeft {
				s.lDone = true
				s.lastL = math.Inf(-1)
			} else {
				s.rDone = true
				s.lastR = math.Inf(-1)
			}
			continue
		}
		if fromLeft {
			s.lastL = t.Score
		} else {
			s.lastR = t.Score
		}
		return t, fromLeft, true, nil
	}
}

// complete evaluates the predicates a one-sided arrival is missing so the
// tuple's score is final under P1 ∪ P2.
func (s *setOpBase) complete(ctx *Context, t *schema.Tuple, fromLeft bool) {
	var miss []*boundPred
	if fromLeft {
		miss = s.missL
	} else {
		miss = s.missR
	}
	for _, bp := range miss {
		if !t.Evaluated.Has(bp.pred.Index) {
			ctx.evalPred(bp, t)
		}
	}
}

// futureBound is the highest upper bound any not-yet-seen tuple can have,
// on either side.
func (s *setOpBase) futureBound() float64 {
	return math.Max(s.lastL, s.lastR)
}

func (s *setOpBase) closeBase() error {
	if err := s.left.Close(); err != nil {
		s.right.Close()
		return err
	}
	return s.right.Close()
}

func (s *setOpBase) Children() []Operator { return []Operator{s.left, s.right} }

// RankUnion is the rank-aware ∪ (set semantics). Every arrival is
// completed to P1∪P2 and queued; duplicates (by value) merge into one
// entry. An entry is emitted once its final score dominates the bound on
// all future arrivals.
type RankUnion struct {
	setOpBase
	queue tupleHeap
	seen  map[string]bool // value keys already queued or emitted
}

// NewRankUnion builds left ∪ right.
func NewRankUnion(left, right Operator) (*RankUnion, error) {
	u := &RankUnion{}
	if err := u.initSetOp(left, right); err != nil {
		return nil, err
	}
	return u, nil
}

// Open implements Operator.
func (u *RankUnion) Open(ctx *Context) error {
	if ctx.Profile {
		defer u.prof(time.Now())
	}
	u.queue = tupleHeap{}
	u.seen = map[string]bool{}
	return u.openBase(ctx)
}

// Next implements Operator.
func (u *RankUnion) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer u.prof(time.Now())
	}
	for {
		if err := ctx.interrupted(); err != nil {
			return nil, err
		}
		if !u.queue.empty() && u.queue.top().Score >= u.futureBound() {
			ctx.Stats.buffer(-1)
			return u.emit(u.queue.pop()), nil
		}
		t, fromLeft, ok, err := u.draw(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			if u.queue.empty() {
				return nil, nil
			}
			ctx.Stats.buffer(-1)
			return u.emit(u.queue.pop()), nil
		}
		key := t.ValueKey()
		if u.seen[key] {
			continue // duplicate: same final score, already queued/emitted
		}
		u.seen[key] = true
		u.complete(ctx, t, fromLeft)
		u.queue.push(t)
		ctx.Stats.buffer(1)
	}
}

// Close implements Operator.
func (u *RankUnion) Close() error {
	u.queue = tupleHeap{}
	u.seen = nil
	return u.closeBase()
}

// Evaluated implements Operator.
func (u *RankUnion) Evaluated() schema.Bitset { return u.lp.Union(u.rp) }

// Name implements Operator.
func (u *RankUnion) Name() string { return "rankUnion" }

// RankIntersect is the rank-aware ∩ (set semantics). A tuple joins the
// output only after it has been seen on both sides; a pending one-sided
// entry is discarded once the other side's stream bound proves its
// duplicate can no longer arrive (§4.2).
type RankIntersect struct {
	setOpBase
	queue   tupleHeap
	pending map[string]*pendingEntry
	emitted map[string]bool
}

type pendingEntry struct {
	t         *schema.Tuple
	seenLeft  bool
	seenRight bool
	// boundOnOther is the score the missing side's copy would have in
	// that side's own order (F_{P2}[t] for an L-only entry): once the
	// other stream's last bound drops below it, no copy can arrive.
	boundOnOther float64
}

// NewRankIntersect builds left ∩ right.
func NewRankIntersect(left, right Operator) (*RankIntersect, error) {
	x := &RankIntersect{}
	if err := x.initSetOp(left, right); err != nil {
		return nil, err
	}
	return x, nil
}

// Open implements Operator.
func (x *RankIntersect) Open(ctx *Context) error {
	if ctx.Profile {
		defer x.prof(time.Now())
	}
	x.queue = tupleHeap{}
	x.pending = map[string]*pendingEntry{}
	x.emitted = map[string]bool{}
	return x.openBase(ctx)
}

// otherSideBound computes the upper bound the other side's copy of t would
// carry in that side's stream: F_{Pother}[t].
func (x *RankIntersect) otherSideBound(ctx *Context, t *schema.Tuple, fromLeft bool) float64 {
	other := x.rp
	if !fromLeft {
		other = x.lp
	}
	// t is fully evaluated on P1∪P2 by now, so the scores are available.
	return ctx.Spec.UpperBound(t.Preds, other.Intersect(t.Evaluated))
}

// Next implements Operator.
func (x *RankIntersect) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer x.prof(time.Now())
	}
	for {
		if err := ctx.interrupted(); err != nil {
			return nil, err
		}
		if !x.queue.empty() && x.queue.top().Score >= x.futureBound() {
			ctx.Stats.buffer(-1)
			return x.emit(x.queue.pop()), nil
		}
		t, fromLeft, ok, err := x.draw(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Both inputs are done: no pending entry can complete.
			ctx.Stats.buffer(-int64(len(x.pending)))
			clear(x.pending)
			if x.queue.empty() {
				return nil, nil
			}
			ctx.Stats.buffer(-1)
			return x.emit(x.queue.pop()), nil
		}
		key := t.ValueKey()
		if x.emitted[key] {
			continue
		}
		e := x.pending[key]
		if e == nil {
			x.complete(ctx, t, fromLeft)
			e = &pendingEntry{t: t}
			e.boundOnOther = x.otherSideBound(ctx, t, fromLeft)
			x.pending[key] = e
			ctx.Stats.buffer(1)
		}
		if fromLeft {
			e.seenLeft = true
		} else {
			e.seenRight = true
		}
		if e.seenLeft && e.seenRight {
			delete(x.pending, key)
			x.emitted[key] = true
			x.queue.push(e.t)
		}
		// Garbage-collect pending entries whose duplicate can no longer
		// arrive. (Linear sweep amortized by sweeping occasionally.)
		if len(x.pending) > 0 && len(x.pending)%64 == 0 {
			x.sweep(ctx)
		}
	}
}

// sweep drops pending entries that can never complete.
func (x *RankIntersect) sweep(ctx *Context) {
	for k, e := range x.pending {
		var otherLast float64
		if e.seenLeft {
			otherLast = x.lastR
		} else {
			otherLast = x.lastL
		}
		if e.boundOnOther > otherLast {
			delete(x.pending, k)
			ctx.Stats.buffer(-1)
		}
	}
}

// Close implements Operator.
func (x *RankIntersect) Close() error {
	x.queue = tupleHeap{}
	x.pending = nil
	x.emitted = nil
	return x.closeBase()
}

// Evaluated implements Operator.
func (x *RankIntersect) Evaluated() schema.Bitset { return x.lp.Union(x.rp) }

// Name implements Operator.
func (x *RankIntersect) Name() string { return "rankIntersect" }

// RankDiff is the rank-aware − (set semantics): tuples of the outer input
// not present in the inner, in the OUTER input's order F_{P1} (Figure 3).
// Each outer tuple is held until the inner stream either produces its
// duplicate (drop) or can provably never do so (emit); outer arrival order
// is preserved with a FIFO, so the output stays in F_{P1} order.
type RankDiff struct {
	setOpBase
	fifo     []*diffEntry
	innerKey map[string]bool
	outerKey map[string]bool // set semantics: dedupe outer arrivals
}

type diffEntry struct {
	t *schema.Tuple
	// innerBound is F_{P2}[t]: once the inner stream's bound drops below
	// it, the duplicate can no longer arrive.
	innerBound float64
	key        string
}

// NewRankDiff builds left − right.
func NewRankDiff(left, right Operator) (*RankDiff, error) {
	d := &RankDiff{}
	if err := d.initSetOp(left, right); err != nil {
		return nil, err
	}
	return d, nil
}

// Open implements Operator.
func (d *RankDiff) Open(ctx *Context) error {
	if ctx.Profile {
		defer d.prof(time.Now())
	}
	d.fifo = nil
	d.innerKey = map[string]bool{}
	d.outerKey = map[string]bool{}
	return d.openBase(ctx)
}

// Next implements Operator.
func (d *RankDiff) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer d.prof(time.Now())
	}
	for {
		if err := ctx.interrupted(); err != nil {
			return nil, err
		}
		// Resolve the FIFO head if decidable.
		for len(d.fifo) > 0 {
			e := d.fifo[0]
			if d.innerKey[e.key] {
				d.fifo = d.fifo[1:]
				ctx.Stats.buffer(-1)
				continue
			}
			if d.rDone || e.innerBound > d.lastR {
				d.fifo = d.fifo[1:]
				ctx.Stats.buffer(-1)
				// Difference outputs in F_{P1}: restore the outer-only
				// score (complete() may have tightened it for the
				// membership test).
				e.t.Score = ctx.Spec.UpperBound(e.t.Preds, d.lp.Intersect(e.t.Evaluated))
				return d.emit(e.t), nil
			}
			break
		}
		if d.lDone && len(d.fifo) == 0 {
			return nil, nil
		}
		t, fromLeft, ok, err := d.draw(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // both exhausted; loop resolves/exits
		}
		if fromLeft {
			key := t.ValueKey()
			if d.outerKey[key] {
				continue // set semantics: the first copy decides
			}
			d.outerKey[key] = true
			d.complete(ctx, t, true)
			e := &diffEntry{t: t, key: key}
			e.innerBound = ctx.Spec.UpperBound(t.Preds, d.rp.Intersect(t.Evaluated))
			d.fifo = append(d.fifo, e)
			ctx.Stats.buffer(1)
		} else {
			d.innerKey[t.ValueKey()] = true
		}
	}
}

// Close implements Operator.
func (d *RankDiff) Close() error {
	d.fifo = nil
	d.innerKey = nil
	return d.closeBase()
}

// Evaluated implements Operator.
func (d *RankDiff) Evaluated() schema.Bitset { return d.lp }

// Name implements Operator.
func (d *RankDiff) Name() string { return "rankDiff" }
