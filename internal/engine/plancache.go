package engine

import (
	"sync"
	"sync/atomic"

	"ranksql/internal/lru"
	"ranksql/internal/optimizer"
	"ranksql/internal/rank"
)

// DefaultPlanCacheCapacity is the default number of compiled plans kept.
const DefaultPlanCacheCapacity = 256

// CompiledPlan is a reusable optimized SELECT: the physical plan template
// (whose filter/join conditions may contain parameter placeholders), the
// environment to build it against, the ranking spec, and the resolved
// projection. A CompiledPlan is immutable after compilation: executions
// run on pooled instances of it (streams), each a built operator tree
// with private parameter slots, so one cached plan serves concurrent
// queries and cursors.
type CompiledPlan struct {
	Plan *optimizer.PlanNode
	Env  *optimizer.Env
	Spec *rank.Spec
	// Proj are projection indexes over the plan's output schema; nil
	// means SELECT *.
	Proj []int
	// HasParams records whether Plan contains placeholder conditions
	// that must be bound per execution.
	HasParams bool
	// TableRows records each referenced table's row count at planning
	// time (by lower-cased name), so a later execution can detect that
	// the data has outgrown the plan's cost assumptions.
	TableRows map[string]int
	// execs counts executions of this plan, driving the ProfileEvery
	// sampling decision. Atomic: one cached plan serves concurrent
	// queries under the DB read lock.
	execs atomic.Uint64
	// pool recycles the plan's streams across executions. They hold the
	// per-request mutable state, so the CompiledPlan itself stays
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

// PlanCache is the LRU of compiled plans. A lookup that finds a plan
// whose cost assumptions no longer hold (DB.planFresh) drops it and
// counts a stale miss, so the recompile that follows stores a fresh one.
type PlanCache = lru.Cache[planKey, *CompiledPlan]
