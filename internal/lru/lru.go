// Package lru is the one least-recently-used cache: the engine's plan
// cache and the router's ranked-result cache are both instances of it.
// It hides the recency list, the eviction loop and the counter
// bookkeeping; what makes a cached value stale stays with the caller,
// which passes a validity check to each Get.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a mutex-guarded LRU map from K to V, safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used; elements hold *entry[K, V]
	entries   map[K]*list.Element
	hits      uint64
	misses    uint64
	stale     uint64
	evictions uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits, Misses uint64
	// Stale counts lookups that found an entry the caller's validity check
	// rejected; each also counts as a miss.
	Stale             uint64
	Evictions         uint64
	Entries, Capacity int
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// New returns an empty cache holding up to capacity entries; capacity
// <= 0 disables it (every lookup misses and nothing is stored).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		ll:       list.New(),
		entries:  map[K]*list.Element{},
	}
}

// Get returns the value cached under k and marks it most recently used.
// A non-nil valid is asked whether the found value may still be served:
// when it says no, the entry is removed and the lookup counts as stale
// and as a miss. valid runs under the cache's lock and must not call
// back into the cache.
func (c *Cache[K, V]) Get(k K, valid func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero V
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return zero, false
	}
	e := el.Value.(*entry[K, V])
	if valid != nil && !valid(e.val) {
		c.removeLocked(el)
		c.stale++
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return e.val, true
}

// Put stores v under k as the most recently used entry (overwriting in
// place keeps one entry per key), evicting from the cold end when over
// capacity.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.entries[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.entries[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
	c.shrinkLocked()
}

// Resize changes the capacity, evicting as needed; n <= 0 empties and
// disables the cache.
func (c *Cache[K, V]) Resize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	c.shrinkLocked()
}

// Clear drops every entry (counters are kept).
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.entries = map[K]*list.Element{}
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Stale: c.stale, Evictions: c.evictions,
		Entries: len(c.entries), Capacity: c.capacity,
	}
}

func (c *Cache[K, V]) shrinkLocked() {
	for len(c.entries) > c.capacity && len(c.entries) > 0 {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
}

func (c *Cache[K, V]) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	delete(c.entries, el.Value.(*entry[K, V]).key)
}
