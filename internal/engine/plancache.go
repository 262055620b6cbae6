package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

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

// CacheStats is a point-in-time snapshot of plan-cache counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	// StaleRecompiles counts hits that were rejected because a referenced
	// table grew past the staleness factor, forcing a recompile.
	StaleRecompiles   uint64
	Entries, Capacity int
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PlanCache is a mutex-guarded LRU cache of compiled plans.
type PlanCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	entries   map[planKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	stale     uint64
}

type cacheEntry struct {
	key planKey
	cp  *CompiledPlan
}

// NewPlanCache returns an empty LRU plan cache; capacity <= 0 disables
// caching (every lookup misses and nothing is stored).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		cap:     capacity,
		ll:      list.New(),
		entries: map[planKey]*list.Element{},
	}
}

// Get returns the cached plan for the key, or nil on miss.
func (pc *PlanCache) Get(k planKey) *CompiledPlan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[k]
	if !ok {
		pc.misses++
		return nil
	}
	pc.hits++
	pc.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).cp
}

// Put stores a compiled plan, evicting the least recently used entry when
// over capacity.
func (pc *PlanCache) Put(k planKey, cp *CompiledPlan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.cap <= 0 {
		return
	}
	if el, ok := pc.entries[k]; ok {
		el.Value.(*cacheEntry).cp = cp
		pc.ll.MoveToFront(el)
		return
	}
	pc.entries[k] = pc.ll.PushFront(&cacheEntry{key: k, cp: cp})
	for pc.ll.Len() > pc.cap {
		oldest := pc.ll.Back()
		pc.ll.Remove(oldest)
		delete(pc.entries, oldest.Value.(*cacheEntry).key)
		pc.evictions++
	}
}

// noteStale counts a cache hit that was discarded because the plan's
// cost assumptions went stale (row-count drift), forcing a recompile.
func (pc *PlanCache) noteStale() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.stale++
}

// Stats snapshots the cache counters.
func (pc *PlanCache) Stats() CacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return CacheStats{
		Hits: pc.hits, Misses: pc.misses, Evictions: pc.evictions,
		StaleRecompiles: pc.stale,
		Entries:         pc.ll.Len(), Capacity: pc.cap,
	}
}

// Resize changes the capacity, evicting as needed; n <= 0 empties and
// disables the cache.
func (pc *PlanCache) Resize(n int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.cap = n
	for pc.ll.Len() > pc.cap && pc.ll.Len() > 0 {
		oldest := pc.ll.Back()
		pc.ll.Remove(oldest)
		delete(pc.entries, oldest.Value.(*cacheEntry).key)
		pc.evictions++
	}
}

// Clear drops every cached plan (counters are kept).
func (pc *PlanCache) Clear() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.ll.Init()
	pc.entries = map[planKey]*list.Element{}
}
