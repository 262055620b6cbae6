package ranksql

import (
	"sync"
	"sync/atomic"

	"ranksql/internal/catalog"
	"ranksql/internal/lru"
	"ranksql/internal/optimizer"
	"ranksql/internal/rank"
)

// defaultPlanCacheCapacity is the default number of compiled plans kept.
const defaultPlanCacheCapacity = 256

// compiledPlan is a reusable optimized query — a SELECT or a set
// operation: the physical plan template (whose filter/join conditions may
// contain parameter placeholders), rooted in the statement's projection
// or set operator, the environment to build it against, and the ranking
// spec. A compiledPlan is immutable after compilation: executions run on
// pooled instances of it (streams), each a built operator tree with
// private parameter slots, so one cached plan serves concurrent queries
// and cursors.
type compiledPlan struct {
	Plan *optimizer.PlanNode
	// Env is a SELECT's environment; nil for a set operation, whose
	// operator node carries each operand's own.
	Env  *optimizer.Env
	Spec *rank.Spec
	// HasParams records whether Plan contains placeholder conditions
	// that must be bound per execution.
	HasParams bool
	// Snapshots are the table snapshots the plan was costed on (both
	// operands' for a set operation); once one is no longer current the
	// data has outgrown the plan's cost assumptions.
	Snapshots []*catalog.Snapshot
	// execs counts executions of this plan, driving the profileEvery
	// sampling decision. Atomic: one cached plan serves concurrent
	// queries under the DB read lock.
	execs atomic.Uint64
	// pool recycles the plan's streams across executions. They hold the
	// per-request mutable state, so the compiledPlan itself stays
	// immutable and shared.
	pool sync.Pool
}

// planKey identifies a cached plan: the normalized statement text (which
// pins the query template, including its evaluated ranking predicates),
// the effective top-k bound (k shapes the rank-aware plan choice), and
// the catalog schema version (DDL invalidates by bumping it).
type planKey struct {
	norm    string
	k       int
	version uint64
}

// planCache is the LRU of compiled plans. A lookup that finds a plan
// whose cost assumptions no longer hold (planFresh) drops it and
// counts a stale miss, so the recompile that follows stores a fresh one.
type planCache = lru.Cache[planKey, *compiledPlan]
