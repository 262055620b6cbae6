package exec

import (
	"container/heap"
	"fmt"
	"strings"
	"time"

	"ranksql/internal/expr"
	"ranksql/internal/schema"
)

// Operator is a physical plan node in the iterator model. Next returns the
// next output tuple or nil at end-of-stream. Rank-aware operators emit
// tuples in non-increasing maximal-possible-score order (the operator's
// output is a rank-relation over the predicate set Evaluated()).
type Operator interface {
	// Open prepares the operator (and recursively its inputs).
	Open(ctx *Context) error
	// Next returns the next tuple, or (nil, nil) at end of stream.
	Next(ctx *Context) (*schema.Tuple, error)
	// Close releases resources (recursively).
	Close() error

	// Schema describes the output columns.
	Schema() *schema.Schema
	// Evaluated is the set P of ranking predicates evaluated at or below
	// this operator; the output stream is ordered by F_P (for rank-aware
	// operators).
	Evaluated() schema.Bitset
	// Name is a short operator label for EXPLAIN, e.g. "rank(f2)".
	Name() string
	// Children returns the input operators.
	Children() []Operator
	// OutCount reports tuples emitted so far (per-operator cardinality,
	// used for Figure 13 style accounting and sampling estimation).
	OutCount() int64
}

// opBase carries the bookkeeping every operator shares.
type opBase struct {
	sch *schema.Schema
	out int64
	// in counts tuples a leaf pulled from its table — the leaf's depth of
	// enumeration. Inner nodes derive depth-k from their children's out.
	in int64
	// timeNS / calls accumulate inclusive wall time across Open and Next
	// when Context.Profile is set.
	timeNS int64
	calls  int64
}

func (b *opBase) Schema() *schema.Schema { return b.sch }
func (b *opBase) OutCount() int64        { return b.out }

// profiled is the side interface SnapshotTree uses to read profiling
// counters without widening the public Operator interface; every operator
// gets it by embedding opBase.
type profiled interface {
	profCounters() (timeNS, calls, in int64)
}

func (b *opBase) profCounters() (int64, int64, int64) { return b.timeNS, b.calls, b.in }

// prof accumulates inclusive wall time for one Open or Next invocation.
// Call as `defer b.prof(time.Now())`, guarded by ctx.Profile so the
// unprofiled hot path pays only a branch.
func (b *opBase) prof(start time.Time) {
	b.timeNS += int64(time.Since(start))
	b.calls++
}

// scanned counts a tuple pulled from a base table (leaves only).
func (b *opBase) scanned() { b.in++ }

// emit counts an outgoing tuple.
func (b *opBase) emit(t *schema.Tuple) *schema.Tuple {
	if t != nil {
		b.out++
	}
	return t
}

// reset clears the counters (operators are single-use; reset exists
// for the estimator, which re-opens cached trees).
func (b *opBase) reset() { b.out, b.in, b.timeNS, b.calls = 0, 0, 0, 0 }

// tupleHeap is a max-heap of tuples by Score (descending) with TID
// tie-break — the "ranking queue" of §4.1.
type tupleHeap struct {
	items []*schema.Tuple
}

func (h *tupleHeap) Len() int           { return len(h.items) }
func (h *tupleHeap) Less(i, j int) bool { return h.items[i].Less(h.items[j]) }
func (h *tupleHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *tupleHeap) Push(x interface{}) { h.items = append(h.items, x.(*schema.Tuple)) }
func (h *tupleHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return t
}

func (h *tupleHeap) push(t *schema.Tuple) { heap.Push(h, t) }
func (h *tupleHeap) pop() *schema.Tuple   { return heap.Pop(h).(*schema.Tuple) }
func (h *tupleHeap) top() *schema.Tuple   { return h.items[0] }
func (h *tupleHeap) empty() bool          { return len(h.items) == 0 }

// CondHolder is implemented by operators that own a bound Boolean
// condition tree (filters, fused scan selections, join conditions). The
// engine's pooled serve path uses it to find a built tree's parameter
// placeholders once, then rebinds them in place on every request instead
// of re-cloning and re-building the tree.
type CondHolder interface {
	// BoundCond returns the operator's condition; may be nil.
	BoundCond() expr.Expr
}

// CollectParams gathers every parameter placeholder reachable from the
// tree's bound conditions, pre-order. Build clones each condition into
// the operator that owns it, so the returned pointers are private to this
// tree: writing their Val/Bound fields rebinds exactly this tree.
func CollectParams(op Operator) []*expr.Param {
	var out []*expr.Param
	Walk(op, func(o Operator, _ int) {
		h, ok := o.(CondHolder)
		if !ok {
			return
		}
		expr.Walk(h.BoundCond(), func(e expr.Expr) {
			if p, ok := e.(*expr.Param); ok {
				out = append(out, p)
			}
		})
	})
	return out
}

// Walk visits the operator tree pre-order.
func Walk(op Operator, fn func(op Operator, depth int)) {
	var rec func(Operator, int)
	rec = func(o Operator, d int) {
		fn(o, d)
		for _, c := range o.Children() {
			rec(c, d+1)
		}
	}
	rec(op, 0)
}

// TreeSnapshot is a compact record of an executed operator tree: just the
// labels and counters, without retaining the operators (and their
// buffers) themselves.
type TreeSnapshot []TreeNode

// TreeNode is one operator line of a TreeSnapshot.
type TreeNode struct {
	Depth int
	Label string
	Out   int64
	// DepthK is the node's depth of enumeration: tuples it consumed from
	// its inputs (children's emitted counts; for leaves, tuples pulled
	// from the base table). Rank-aware operators stopping early show a
	// DepthK far below the input cardinality.
	DepthK int64
	// TimeNS is inclusive wall time (self + children) and Calls the
	// number of Open/Next invocations; both are zero unless the
	// execution ran with Context.Profile set.
	TimeNS int64
	Calls  int64
}

// SnapshotTree captures the tree's labels and counters; the operators are
// not referenced afterwards, so their buffers can be collected while the
// snapshot lives on in a result.
func SnapshotTree(op Operator) TreeSnapshot {
	return NewTreeLabels(op).Snapshot()
}

// TreeLabels is the precomputed (depth, label) skeleton of an operator
// tree. Rendering a label costs an fmt.Sprintf per operator, which
// SnapshotTree pays on every call; a pooled tree's shape never changes,
// so its owner renders the labels once and snapshots against them.
type TreeLabels struct {
	nodes []TreeNode
	ops   []Operator
}

// NewTreeLabels renders the tree's labels once for repeated snapshots.
func NewTreeLabels(op Operator) *TreeLabels {
	tl := &TreeLabels{}
	Walk(op, func(o Operator, d int) {
		tl.nodes = append(tl.nodes, TreeNode{Depth: d, Label: o.Name()})
		tl.ops = append(tl.ops, o)
	})
	return tl
}

// Snapshot captures the tree's current counters under the precomputed
// labels. The snapshot is freshly allocated — it escapes into results
// that outlive the pooled tree's next reuse.
func (tl *TreeLabels) Snapshot() TreeSnapshot {
	ts := make(TreeSnapshot, len(tl.nodes))
	for i, o := range tl.ops {
		n := tl.nodes[i]
		n.Out = o.OutCount()
		if kids := o.Children(); len(kids) > 0 {
			for _, c := range kids {
				n.DepthK += c.OutCount()
			}
		} else if p, ok := o.(profiled); ok {
			_, _, n.DepthK = p.profCounters()
		}
		if p, ok := o.(profiled); ok {
			n.TimeNS, n.Calls, _ = p.profCounters()
		}
		ts[i] = n
	}
	return ts
}

// Profiled reports whether the snapshot carries timing data.
func (ts TreeSnapshot) Profiled() bool {
	for _, n := range ts {
		if n.Calls > 0 {
			return true
		}
	}
	return false
}

// String renders the snapshot EXPLAIN-ANALYZE style. The `out=` field is
// always present; timing fields appear only for profiled executions.
func (ts TreeSnapshot) String() string {
	profiled := ts.Profiled()
	var b strings.Builder
	for _, n := range ts {
		fmt.Fprintf(&b, "%s%s (out=%d", strings.Repeat("  ", n.Depth), n.Label, n.Out)
		if profiled {
			fmt.Fprintf(&b, ", depth_k=%d, time=%.3fms, calls=%d",
				n.DepthK, float64(n.TimeNS)/1e6, n.Calls)
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// Drain pulls every tuple from op (after Open) and returns them; used by
// tests and the estimator.
func Drain(ctx *Context, op Operator) ([]*schema.Tuple, error) {
	var out []*schema.Tuple
	for {
		t, err := op.Next(ctx)
		if err != nil {
			return out, err
		}
		if t == nil {
			return out, nil
		}
		out = append(out, t)
	}
}

// PullN pulls up to n tuples from an already-open operator tree — one
// page of a suspended ranked stream. A short page means the stream ran
// dry; a full page means deeper tuples may exist (the same exhaustion
// convention top-k results use). The tree is left open, so the caller
// can keep pulling pages: operator state (ranking queues, join
// frontiers, depth counters) carries over between calls.
func PullN(ctx *Context, op Operator, n int) ([]*schema.Tuple, error) {
	out := make([]*schema.Tuple, 0, n)
	for len(out) < n {
		t, err := op.Next(ctx)
		if err != nil {
			return out, err
		}
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out, nil
}

// Run opens, fully drains and closes an operator tree.
func Run(ctx *Context, op Operator) ([]*schema.Tuple, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	return Drain(ctx, op)
}
