// Package exec implements the physical operators of RankSQL as Volcano
// iterators (Open / Next / Close), extended with the incremental ranked
// execution model of §4: operators stream tuples in non-increasing
// maximal-possible-score order, buffering in ranking (priority) queues
// only as long as the Ranking Principle requires.
//
// The operator set: SeqScan; IndexScan, which is idxScan_p over a rank
// index (NewRankScan) or an ascending scan over an attribute index
// (NewIdxScanCol); Filter and Project; µ_p (Rank); RankJoin, keyed as
// HRJN (NewHRJN) or keyless as NRJN (NewNRJN); BlockingJoin, keyed as the
// hash join (NewHashJoin) or keyless as the nested-loops join
// (NewNestedLoopJoin); SortMergeJoin; RankUnion, RankIntersect and
// RankDiff; SortScore, SortColumn and Limit (λ_k).
//
// Every join follows SQL's rule for NULL: a NULL join key equals nothing,
// as it does under expr's =, so a query's answer does not depend on which
// join algorithm its plan picked.
package exec

import (
	"errors"
	"fmt"
	"sync"

	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// ErrInterrupted is returned when execution is cancelled via Context.Cancel.
var ErrInterrupted = errors.New("exec: interrupted")

// Stats aggregates global execution counters. These are the quantities the
// paper's analysis is phrased in (tuples scanned, predicate evaluations and
// their cost, Example 4) and what internal/paper's figure benchmarks
// report alongside wall-clock time.
type Stats struct {
	// TuplesScanned counts tuples produced by scan operators.
	TuplesScanned int64
	// PredEvals counts ranking-predicate evaluations.
	PredEvals int64
	// PredCost accumulates the abstract cost units of those evaluations
	// (sum of Predicate.Cost per evaluation).
	PredCost float64
	// Comparisons counts Boolean predicate evaluations (filters, join
	// conditions).
	Comparisons int64
	// JoinProbes counts candidate pairs examined by join operators.
	JoinProbes int64
	// Buffered / PeakBuffered track tuples held in operator buffers
	// (ranking queues, hash tables, materializations).
	Buffered     int64
	PeakBuffered int64
	// Materialized counts every admission into an operator buffer — the
	// cumulative tuples-materialized footprint of the execution. Unlike
	// Buffered it never decreases when buffers drain.
	Materialized int64
}

func (s *Stats) buffer(n int64) {
	s.Buffered += n
	if n > 0 {
		s.Materialized += n
	}
	if s.Buffered > s.PeakBuffered {
		s.PeakBuffered = s.Buffered
	}
}

// Context carries per-execution state: the query's ranking specification,
// counters, cancellation, profiling and the tuple arena.
type Context struct {
	// Spec is the query's ranking dimension (scoring function +
	// predicates). Never nil; Boolean-only queries use rank.EmptySpec.
	Spec *rank.Spec
	// Stats accumulates execution counters.
	Stats Stats
	// Cancel, when non-nil and closed, interrupts execution at the next
	// cancellation point.
	Cancel <-chan struct{}
	// Profile enables per-operator wall-time accounting: each operator's
	// Open and Next add their inclusive elapsed time to the node's
	// counters, which SnapshotTree then captures for EXPLAIN ANALYZE and
	// per-template operator profiles.
	Profile bool
	// Arena, when non-nil, bulk-allocates the tuples operators produce.
	// BorrowArena attaches one from the package's one pool and
	// ReturnArena resets it and hands it back, so every tuple of the
	// execution dies at ReturnArena. An owner borrows only when no tuple
	// outlives that call: the engine's one-shot runs (borrowed at open,
	// returned at release), paper.Run, and the optimizer's Estimator,
	// whose sample runs all live until its Close. A stream suspended
	// under a cursor keeps Arena nil and heap-allocates, so a deep cursor
	// does not pin every tuple it ever produced.
	Arena *schema.TupleArena

	checkCtr int
}

// newTuple builds a base-table tuple, from the arena when one is attached.
func (c *Context) newTuple(tid schema.TID, values []types.Value, npreds int) *schema.Tuple {
	if c.Arena != nil {
		return c.Arena.NewTuple(tid, values, npreds)
	}
	return schema.NewTuple(tid, values, npreds)
}

// derivedTuple hands out an empty tuple struct for rows that share backing
// slices with an existing tuple (projection output).
func (c *Context) derivedTuple() *schema.Tuple {
	if c.Arena != nil {
		return c.Arena.Tuple()
	}
	return &schema.Tuple{}
}

// arenas is the one pool of tuple arenas. Slabs belong to no plan or
// owner, so an execution run once does not strand its slabs.
var arenas = sync.Pool{New: func() any { return new(schema.TupleArena) }}

// BorrowArena attaches a pooled arena to c, if it has none.
func (c *Context) BorrowArena() {
	if c.Arena == nil {
		c.Arena = arenas.Get().(*schema.TupleArena)
	}
}

// ReturnArena resets c's arena and returns it to the pool. Every tuple
// it handed out is dead from here on.
func (c *Context) ReturnArena() {
	if a := c.Arena; a != nil {
		a.Reset()
		arenas.Put(a)
		c.Arena = nil
	}
}

// Reset clears per-execution state (counters, cancellation, profiling)
// so a pooled Context can serve the next request. The arena is the
// owner's to return (ReturnArena).
func (c *Context) Reset() {
	c.Stats = Stats{}
	c.Cancel = nil
	c.Profile = false
	c.checkCtr = 0
}

// NewContext builds an execution context for a ranking spec.
func NewContext(spec *rank.Spec) *Context {
	if spec == nil {
		spec = rank.EmptySpec()
	}
	return &Context{Spec: spec}
}

// interrupted polls the cancellation channel once every 256 calls.
func (c *Context) interrupted() error {
	if c.Cancel == nil {
		return nil
	}
	c.checkCtr++
	if c.checkCtr&0xff != 0 {
		return nil
	}
	select {
	case <-c.Cancel:
		return ErrInterrupted
	default:
		return nil
	}
}

// boundPred is a ranking predicate resolved against an operator's input
// schema: argument columns mapped to positions, with a scratch buffer.
type boundPred struct {
	pred   *rank.Predicate
	argIdx []int
	args   []types.Value
}

// bindPred resolves p's argument columns against sch. When byNameOnly is
// set, table qualifiers are ignored (used by set operators whose two inputs
// carry different qualifiers over a union-compatible schema).
func bindPred(p *rank.Predicate, sch *schema.Schema, byNameOnly bool) (*boundPred, error) {
	bp := &boundPred{
		pred:   p,
		argIdx: make([]int, len(p.Args)),
		args:   make([]types.Value, len(p.Args)),
	}
	for i, a := range p.Args {
		table := a.Table
		if byNameOnly {
			table = ""
		}
		idx := sch.ColumnIndex(table, a.Column)
		if idx == -1 && !byNameOnly {
			// Fall back to unqualified resolution: predicates created
			// against base-table names still bind when the plan uses an
			// alias, as long as the column is unambiguous.
			idx = sch.ColumnIndex("", a.Column)
		}
		if idx < 0 {
			return nil, fmt.Errorf("exec: cannot bind predicate %s argument %s against %s", p, a, sch)
		}
		bp.argIdx[i] = idx
	}
	return bp, nil
}

// evalPred evaluates a bound predicate on t, charging its cost, recording
// the score, and rescoring the tuple's upper bound.
func (c *Context) evalPred(bp *boundPred, t *schema.Tuple) {
	c.Stats.PredEvals++
	c.Stats.PredCost += bp.pred.Cost
	for i, idx := range bp.argIdx {
		bp.args[i] = t.Values[idx]
	}
	t.Preds[bp.pred.Index] = bp.pred.Fn(bp.args)
	t.Evaluated = t.Evaluated.With(bp.pred.Index)
	c.Spec.Rescore(t)
}
