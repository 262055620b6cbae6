package exec

import (
	"fmt"
	"time"

	"ranksql/internal/expr"
	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// joinCommon holds the machinery shared by all join operators: the
// concatenated output schema, the optional equi-key and the optional
// residual condition bound against the output schema.
type joinCommon struct {
	opBase
	left, right Operator
	cond        expr.Expr // residual condition over the concat schema; may be nil
	// leftCol and rightCol are the equi-key's positions in the left and
	// right inputs, or -1 for a join that has no key, where cond alone
	// decides.
	leftCol, rightCol int
	// pair is the scratch row cond is tested on: the candidate pair's
	// Values side by side, so a rejected pair allocates nothing.
	pair schema.Tuple
}

// BoundCond implements CondHolder for every join (rank-aware and classic
// operators alike embed joinCommon).
func (j *joinCommon) BoundCond() expr.Expr { return j.cond }

// initJoin wires the inputs, resolves the equi-key leftKey = rightKey
// against their schemas (both nil for a keyless join; what names the join
// in the error) and binds cond.
func (j *joinCommon) initJoin(left, right Operator, leftKey, rightKey *expr.Col, cond expr.Expr, what string) error {
	j.left, j.right = left, right
	j.sch = left.Schema().Concat(right.Schema())
	j.cond = cond
	j.leftCol, j.rightCol = -1, -1
	if leftKey != nil {
		j.leftCol = left.Schema().ColumnIndex(leftKey.Table, leftKey.Name)
		j.rightCol = right.Schema().ColumnIndex(rightKey.Table, rightKey.Name)
		if j.leftCol < 0 || j.rightCol < 0 {
			return fmt.Errorf("exec: %s keys %s/%s unresolved", what, leftKey, rightKey)
		}
	}
	if cond != nil {
		if err := expr.Bind(cond, j.sch); err != nil {
			return err
		}
	}
	return nil
}

func (j *joinCommon) keyed() bool { return j.leftCol >= 0 }

// keyHash returns the hash bucket of t's join key: the key's hash, or 0
// for every tuple of a keyless join. ok is false for a NULL key: under
// SQL's rule, the one expr's = follows, NULL equals nothing, so the tuple
// joins nothing.
func (j *joinCommon) keyHash(t *schema.Tuple, fromLeft bool) (h uint64, ok bool) {
	if !j.keyed() {
		return 0, true
	}
	col := j.rightCol
	if fromLeft {
		col = j.leftCol
	}
	v := t.Values[col]
	if v.IsNull() {
		return 0, false
	}
	return v.Hash(), true
}

// sameKey reports whether l and r, found in one hash bucket, have equal
// keys; a rejected pair is a hash collision, counted as a join probe.
func (j *joinCommon) sameKey(ctx *Context, l, r *schema.Tuple) bool {
	if !j.keyed() || types.Equal(l.Values[j.leftCol], r.Values[j.rightCol]) {
		return true
	}
	ctx.Stats.JoinProbes++
	return false
}

// combine applies the residual condition to the pair l, r and, when it
// holds, concatenates them and rescores the result under the query spec.
// Returns nil when the condition rejects the pair. The condition reads
// only Values, so it is tested on the scratch row before anything is
// allocated.
func (j *joinCommon) combine(ctx *Context, l, r *schema.Tuple) (*schema.Tuple, error) {
	ctx.Stats.JoinProbes++
	if j.cond != nil {
		ctx.Stats.Comparisons++
		j.pair.Values = append(append(j.pair.Values[:0], l.Values...), r.Values...)
		ok, err := expr.EvalBool(j.cond, &j.pair)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
	}
	t := schema.Concat(l, r)
	ctx.Spec.Rescore(t)
	return t, nil
}

// closeInputs closes both inputs, reporting the first error.
func (j *joinCommon) closeInputs() error {
	if err := j.left.Close(); err != nil {
		j.right.Close()
		return err
	}
	return j.right.Close()
}

func (j *joinCommon) Children() []Operator { return []Operator{j.left, j.right} }

// Evaluated reports the union of the inputs' evaluated sets; whether the
// OUTPUT STREAM is actually ordered by it depends on the join algorithm
// (rank joins: yes; classic joins: no — the planner only uses classic
// joins below sorts or µ chains).
func (j *joinCommon) Evaluated() schema.Bitset {
	return j.left.Evaluated().Union(j.right.Evaluated())
}

// BlockingJoin is the classic blocking join: at Open it buckets the whole
// right input by join key, then probes one bucket per left tuple. Keyed,
// it is the hash join; keyless, every right tuple lands in one bucket, so
// it is the nested-loops join and the condition decides.
type BlockingJoin struct {
	joinCommon

	buckets map[uint64][]*schema.Tuple
	cur     *schema.Tuple
	bucket  []*schema.Tuple
	buckIx  int
}

// NewHashJoin builds the hash join (keyed mode) on leftKey = rightKey
// (column references resolved against the respective input schemas);
// extra is an optional residual condition over the concat schema.
func NewHashJoin(left, right Operator, leftKey, rightKey *expr.Col, extra expr.Expr) (*BlockingJoin, error) {
	return newBlockingJoin(left, right, leftKey, rightKey, extra)
}

// NewNestedLoopJoin builds the nested-loops join (keyless mode) on cond;
// cond may be nil for a Cartesian product.
func NewNestedLoopJoin(left, right Operator, cond expr.Expr) (*BlockingJoin, error) {
	return newBlockingJoin(left, right, nil, nil, cond)
}

func newBlockingJoin(left, right Operator, leftKey, rightKey *expr.Col, cond expr.Expr) (*BlockingJoin, error) {
	j := &BlockingJoin{}
	if err := j.initJoin(left, right, leftKey, rightKey, cond, "hash join"); err != nil {
		return nil, err
	}
	return j, nil
}

// Open implements Operator.
func (j *BlockingJoin) Open(ctx *Context) error {
	if ctx.Profile {
		defer j.prof(time.Now())
	}
	j.reset()
	j.buckets = map[uint64][]*schema.Tuple{}
	j.cur = nil
	j.bucket = nil
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	for {
		t, err := j.right.Next(ctx)
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		h, ok := j.keyHash(t, false)
		if !ok {
			continue
		}
		j.buckets[h] = append(j.buckets[h], t)
		ctx.Stats.buffer(1)
	}
	return nil
}

// Next implements Operator.
func (j *BlockingJoin) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer j.prof(time.Now())
	}
	for {
		if err := ctx.interrupted(); err != nil {
			return nil, err
		}
		if j.cur == nil {
			t, err := j.left.Next(ctx)
			if err != nil {
				return nil, err
			}
			if t == nil {
				return nil, nil
			}
			h, ok := j.keyHash(t, true)
			if !ok {
				continue
			}
			j.cur = t
			j.bucket = j.buckets[h]
			j.buckIx = 0
		}
		for j.buckIx < len(j.bucket) {
			r := j.bucket[j.buckIx]
			j.buckIx++
			if !j.sameKey(ctx, j.cur, r) {
				continue
			}
			t, err := j.combine(ctx, j.cur, r)
			if err != nil {
				return nil, err
			}
			if t != nil {
				return j.emit(t), nil
			}
		}
		j.cur = nil
	}
}

// Close implements Operator.
func (j *BlockingJoin) Close() error {
	j.buckets = nil
	return j.closeInputs()
}

// Name implements Operator.
func (j *BlockingJoin) Name() string {
	switch {
	case j.keyed():
		return "hashJoin"
	case j.cond == nil:
		return "nestLoop(×)"
	default:
		return fmt.Sprintf("nestLoop(%s)", j.cond)
	}
}

// SortMergeJoin merges two inputs sorted ascending on their join columns.
// It is the classic plan1/plan4 join of the paper's Figure 11. Inputs must
// be sorted (an attribute IndexScan or SortColumn); duplicate key groups
// on the right are buffered and replayed. A NULL key joins nothing.
type SortMergeJoin struct {
	joinCommon

	l        *schema.Tuple
	group    []*schema.Tuple // current right group with equal key
	groupKey types.Value
	groupIx  int
	pendingR *schema.Tuple // right tuple read past the group
	rDone    bool
}

// NewSortMergeJoin builds a merge join on leftKey = rightKey; extra is an
// optional residual condition.
func NewSortMergeJoin(left, right Operator, leftKey, rightKey *expr.Col, extra expr.Expr) (*SortMergeJoin, error) {
	j := &SortMergeJoin{}
	if err := j.initJoin(left, right, leftKey, rightKey, extra, "merge join"); err != nil {
		return nil, err
	}
	return j, nil
}

// Open implements Operator.
func (j *SortMergeJoin) Open(ctx *Context) error {
	if ctx.Profile {
		defer j.prof(time.Now())
	}
	j.reset()
	j.l = nil
	j.group = nil
	j.pendingR = nil
	j.rDone = false
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	return j.right.Open(ctx)
}

// nextRight reads the next right tuple, honoring the pushback slot.
func (j *SortMergeJoin) nextRight(ctx *Context) (*schema.Tuple, error) {
	if j.pendingR != nil {
		t := j.pendingR
		j.pendingR = nil
		return t, nil
	}
	if j.rDone {
		return nil, nil
	}
	t, err := j.right.Next(ctx)
	if err != nil {
		return nil, err
	}
	if t == nil {
		j.rDone = true
	}
	return t, nil
}

// loadGroup fills the right-side duplicate group for key.
func (j *SortMergeJoin) loadGroup(ctx *Context, key types.Value) error {
	j.group = j.group[:0]
	j.groupKey = key
	for {
		r, err := j.nextRight(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			return nil
		}
		c := types.Compare(r.Values[j.rightCol], key)
		ctx.Stats.Comparisons++
		switch {
		case c == 0:
			j.group = append(j.group, r)
		case c > 0:
			j.pendingR = r
			return nil
		default:
			// Right key below group key: skip (no left match remains).
		}
	}
}

// Next implements Operator.
func (j *SortMergeJoin) Next(ctx *Context) (*schema.Tuple, error) {
	if ctx.Profile {
		defer j.prof(time.Now())
	}
	for {
		if err := ctx.interrupted(); err != nil {
			return nil, err
		}
		if j.l == nil {
			t, err := j.left.Next(ctx)
			if err != nil {
				return nil, err
			}
			if t == nil {
				return nil, nil
			}
			key := t.Values[j.leftCol]
			if key.IsNull() {
				continue
			}
			j.l = t
			if j.group == nil || !types.Equal(key, j.groupKey) {
				// Advance the right side to this key's group.
				if j.group == nil || types.Compare(key, j.groupKey) > 0 {
					if err := j.loadGroup(ctx, key); err != nil {
						return nil, err
					}
				} else {
					// Left went backwards? Inputs unsorted.
					return nil, fmt.Errorf("exec: sort-merge join: left input not sorted")
				}
			}
			j.groupIx = 0
		}
		for j.groupIx < len(j.group) {
			r := j.group[j.groupIx]
			j.groupIx++
			t, err := j.combine(ctx, j.l, r)
			if err != nil {
				return nil, err
			}
			if t != nil {
				return j.emit(t), nil
			}
		}
		j.l = nil
	}
}

// Close implements Operator.
func (j *SortMergeJoin) Close() error {
	j.group = nil
	return j.closeInputs()
}

// Name implements Operator.
func (j *SortMergeJoin) Name() string { return "mergeJoin" }
