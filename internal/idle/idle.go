// Package idle is the one table of client-held handles that expire when
// left alone: internal/front keeps each daemon's sessions and ranked
// cursors in instances of it. It hides id minting, the idle clock,
// the lazy sweep (no background goroutine to leak in tests or
// embeddings) and the tombstones that let a request naming a collected
// handle hear "expired" rather than "unknown" — from every operation
// alike, because there is one lookup.
package idle

import (
	"fmt"
	"sync"
	"time"
)

const (
	// sweepDivisor divides the TTL into the lazy sweep cadence: table
	// accesses rescan at most once per ttl/sweepDivisor, so expiry
	// detection lags the deadline by at most that much.
	sweepDivisor = 8
	// maxTombstones bounds the record of collected ids; when full it is
	// dropped wholesale — only error quality degrades.
	maxTombstones = 4096
)

// Spec configures a Table.
type Spec[V any] struct {
	// Kind names an entry in error messages ("session", "cursor") and its
	// close endpoint (/<kind>/close); Prefix starts minted ids
	// ("cur" mints "cur-1", "cur-2", ...).
	Kind, Prefix string
	// Hint ends the "expired" error, telling the client how to recover.
	Hint string
	// TTL is how long an entry may sit unused before it is collected;
	// <= 0 keeps entries until they are removed.
	TTL time.Duration
	// Limit caps concurrently open entries (0 = unbounded).
	Limit int
	// OnEvict, when set, receives each entry the TTL collected. It runs
	// after the table's lock is released, so it may block, take the
	// entry's own lock, or call back into the table.
	OnEvict func(V)
}

// Table maps minted ids to open entries and collects the idle ones.
// It is safe for concurrent use.
type Table[V any] struct {
	spec Spec[V]
	now  func() time.Time // the idle clock (tests substitute their own)

	mu        sync.Mutex
	m         map[string]*slot[V]
	pinned    int // entries added by Pin
	tombs     map[string]time.Time
	expired   uint64
	lastSweep time.Time
	nextID    uint64
}

type slot[V any] struct {
	v        V
	lastUsed time.Time
	pinned   bool
}

// New builds an empty table.
func New[V any](spec Spec[V]) *Table[V] {
	return &Table[V]{
		spec:      spec,
		now:       time.Now,
		m:         map[string]*slot[V]{},
		tombs:     map[string]time.Time{},
		lastSweep: time.Now(),
	}
}

// Pin registers v under a fixed id, exempt from expiry, removal, the
// limit and Len (the default session "").
func (t *Table[V]) Pin(id string, v V) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[id] = &slot[V]{v: v, pinned: true}
	t.pinned++
}

// Add registers v under a freshly minted id.
func (t *Table[V]) Add(v V) (string, error) {
	t.mu.Lock()
	now := t.now()
	evicted := t.sweepLocked(now, false)
	var id string
	var err error
	if open := len(t.m) - t.pinned; t.spec.Limit > 0 && open >= t.spec.Limit {
		err = fmt.Errorf("already holds %d open %ss; close some via /%s/close", open, t.spec.Kind, t.spec.Kind)
	} else {
		t.nextID++
		id = fmt.Sprintf("%s-%d", t.spec.Prefix, t.nextID)
		t.m[id] = &slot[V]{v: v, lastUsed: now}
	}
	t.mu.Unlock()
	t.evict(evicted)
	return id, err
}

// Get resolves an id and restarts its idle timer. Unknown and expired
// ids fail with distinct errors.
func (t *Table[V]) Get(id string) (V, error) {
	return t.lookup(id, false)
}

// Remove unregisters an id and returns its entry for the caller to
// release; it fails exactly as Get does.
func (t *Table[V]) Remove(id string) (V, error) {
	return t.lookup(id, true)
}

func (t *Table[V]) lookup(id string, remove bool) (V, error) {
	t.mu.Lock()
	now := t.now()
	evicted := t.sweepLocked(now, false)
	var v V
	var err error
	s, ok := t.m[id]
	switch when, was := t.tombs[id]; {
	case ok && !(remove && s.pinned):
		v = s.v
		if remove {
			delete(t.m, id)
		} else {
			s.lastUsed = now
		}
	case was:
		err = fmt.Errorf("%s %q expired after %s idle (at %s); %s",
			t.spec.Kind, id, t.spec.TTL, when.Format(time.RFC3339), t.spec.Hint)
	default:
		err = fmt.Errorf("no %s %q", t.spec.Kind, id)
	}
	t.mu.Unlock()
	t.evict(evicted)
	return v, err
}

// Sweep collects every entry idle for longer than the TTL as of now,
// regardless of the lazy cadence (tests pass a clock past the TTL to
// make expiry deterministic without sleeping).
func (t *Table[V]) Sweep(now time.Time) {
	t.mu.Lock()
	evicted := t.sweepLocked(now, true)
	t.mu.Unlock()
	t.evict(evicted)
}

// sweepLocked unregisters the entries whose idle time exceeds the TTL,
// leaving a tombstone for each, and returns them for evict. Unless
// forced it runs at most once per ttl/sweepDivisor, so hot request
// paths don't rescan the table on every call. Callers hold t.mu.
func (t *Table[V]) sweepLocked(now time.Time, force bool) []V {
	ttl := t.spec.TTL
	if ttl <= 0 || (!force && now.Sub(t.lastSweep) < ttl/sweepDivisor) {
		return nil
	}
	t.lastSweep = now
	var evicted []V
	for id, s := range t.m {
		if s.pinned || now.Sub(s.lastUsed) <= ttl {
			continue
		}
		delete(t.m, id)
		if len(t.tombs) >= maxTombstones {
			t.tombs = map[string]time.Time{}
		}
		t.tombs[id] = now
		t.expired++
		evicted = append(evicted, s.v)
	}
	return evicted
}

// evict hands collected entries to OnEvict; callers have released t.mu.
func (t *Table[V]) evict(evicted []V) {
	if t.spec.OnEvict == nil {
		return
	}
	for _, v := range evicted {
		t.spec.OnEvict(v)
	}
}

// Len reports open entries (pinned ones excluded).
func (t *Table[V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m) - t.pinned
}

// Expired reports how many entries the TTL has collected.
func (t *Table[V]) Expired() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.expired
}

// Values snapshots the open entries (pinned ones excluded).
func (t *Table[V]) Values() []V {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]V, 0, len(t.m)-t.pinned)
	for _, s := range t.m {
		if !s.pinned {
			out = append(out, s.v)
		}
	}
	return out
}
