package lru

import (
	"reflect"
	"sync"
	"testing"
)

// keys lists the cache's keys from most to least recently used.
func keys(c *Cache[string, int]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[string, int]).key)
	}
	return out
}

func TestCache(t *testing.T) {
	even := func(v int) bool { return v%2 == 0 }
	cases := []struct {
		name     string
		capacity int
		run      func(t *testing.T, c *Cache[string, int])
		wantKeys []string // most recently used first
		want     Stats
	}{
		{
			name: "evicts the least recently used", capacity: 2,
			run: func(t *testing.T, c *Cache[string, int]) {
				c.Put("a", 1)
				c.Put("b", 2)
				c.Get("a", nil) // a is now hotter than b
				c.Put("c", 3)   // evicts b
				c.Get("b", nil)
			},
			wantKeys: []string{"c", "a"},
			want:     Stats{Hits: 1, Misses: 1, Evictions: 1, Entries: 2, Capacity: 2},
		},
		{
			name: "overwrite keeps one entry and refreshes it", capacity: 2,
			run: func(t *testing.T, c *Cache[string, int]) {
				c.Put("a", 1)
				c.Put("b", 2)
				c.Put("a", 10) // no eviction: a already has a slot
				if v, ok := c.Get("a", nil); !ok || v != 10 {
					t.Errorf("Get(a) = %d, %v after overwrite", v, ok)
				}
				c.Put("c", 3) // evicts b, the colder one
			},
			wantKeys: []string{"c", "a"},
			want:     Stats{Hits: 1, Evictions: 1, Entries: 2, Capacity: 2},
		},
		{
			name: "capacity <= 0 stores nothing", capacity: 0,
			run: func(t *testing.T, c *Cache[string, int]) {
				c.Put("a", 1)
				c.Get("a", nil)
			},
			want: Stats{Misses: 1},
		},
		{
			name: "Resize shrinks from the cold end, Resize(0) empties", capacity: 3,
			run: func(t *testing.T, c *Cache[string, int]) {
				c.Put("a", 1)
				c.Put("b", 2)
				c.Put("c", 3)
				c.Resize(2) // evicts a
				if got := keys(c); !reflect.DeepEqual(got, []string{"c", "b"}) {
					t.Errorf("after Resize(2): %v", got)
				}
				c.Resize(0)
				c.Put("d", 4) // disabled now
			},
			want: Stats{Evictions: 3},
		},
		{
			name: "Clear drops entries and keeps counters", capacity: 2,
			run: func(t *testing.T, c *Cache[string, int]) {
				c.Put("a", 1)
				c.Get("a", nil)
				c.Clear()
				c.Get("a", nil)
				c.Put("b", 2) // the cleared cache still works
			},
			wantKeys: []string{"b"},
			want:     Stats{Hits: 1, Misses: 1, Entries: 1, Capacity: 2},
		},
		{
			name: "a failed validity check removes the entry: stale and a miss", capacity: 2,
			run: func(t *testing.T, c *Cache[string, int]) {
				c.Put("odd", 1)
				c.Put("even", 2)
				c.Get("even", even) // valid: a hit
				c.Get("odd", even)  // invalid: removed
				c.Get("odd", nil)   // gone for everyone
			},
			wantKeys: []string{"even"},
			want:     Stats{Hits: 1, Misses: 2, Stale: 1, Entries: 1, Capacity: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](tc.capacity)
			tc.run(t, c)
			if got := keys(c); !reflect.DeepEqual(got, tc.wantKeys) {
				t.Errorf("keys (hot to cold) = %v, want %v", got, tc.wantKeys)
			}
			if got := c.Stats(); got != tc.want {
				t.Errorf("stats = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestHitRate(t *testing.T) {
	if got := (Stats{}).HitRate(); got != 0 {
		t.Errorf("HitRate before any lookup = %v, want 0", got)
	}
	if got := (Stats{Hits: 3, Misses: 1}).HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
}

// TestConcurrentUse drives every method from several goroutines; the
// invariants (never over capacity, every lookup counted once) hold and
// -race sees the accesses.
func TestConcurrentUse(t *testing.T) {
	const workers, ops, capacity = 8, 500, 16
	c := New[int, int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (w*31 + i) % 40
				if v, ok := c.Get(k, func(v int) bool { return v%7 != 0 }); ok && v != k*3 {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*3)
				}
				c.Put(k, k*3)
				if i%100 == 99 {
					c.Resize(capacity - w%2)
				}
				if s := c.Stats(); s.Entries > capacity {
					t.Errorf("%d entries, capacity %d", s.Entries, capacity)
				}
			}
		}(w)
	}
	wg.Wait()
	if s := c.Stats(); s.Hits+s.Misses != workers*ops {
		t.Errorf("hits %d + misses %d != %d lookups", s.Hits, s.Misses, workers*ops)
	}
}
