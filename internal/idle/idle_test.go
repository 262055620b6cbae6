package idle

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// clock is a hand-driven idle clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTable builds a table of ints on a hand-driven clock, recording
// evictions.
func newTable(ttl time.Duration, limit int) (*Table[int], *clock, *[]int) {
	clk := &clock{t: time.Unix(1_000_000, 0)}
	var evicted []int
	tbl := New(Spec[int]{
		Kind: "cursor", Prefix: "cur", Hint: "re-open the query",
		TTL: ttl, Limit: limit,
		OnEvict: func(v int) { evicted = append(evicted, v) },
	})
	tbl.now, tbl.lastSweep = clk.now, clk.now()
	return tbl, clk, &evicted
}

// TestLookupErrors pins the one lookup behind Get and Remove: a live id
// resolves, an id the TTL collected says "expired" — with the recovery
// hint — from both, and an id never minted says "no cursor" from both.
func TestLookupErrors(t *testing.T) {
	tbl, clk, evicted := newTable(time.Minute, 0)
	live, _ := tbl.Add(1)
	dead, _ := tbl.Add(2)
	clk.advance(45 * time.Second)
	if v, err := tbl.Get(live); err != nil || v != 1 { // restarts live's idle timer
		t.Fatalf("Get(live) = %d, %v", v, err)
	}
	clk.advance(45 * time.Second) // dead: 90s idle; live: 45s

	cases := []struct {
		name, id  string
		wantValue int
		wantErr   []string // substrings; nil = success
		notErr    string
	}{
		{name: "live", id: live, wantValue: 1},
		{name: "expired", id: dead, wantErr: []string{`cursor "cur-2" expired after 1m0s idle`, "re-open the query"}},
		{name: "unknown", id: "cur-99", wantErr: []string{`no cursor "cur-99"`}, notErr: "expired"},
	}
	for _, op := range []struct {
		name string
		call func(string) (int, error)
	}{{"Get", tbl.Get}, {"Remove", tbl.Remove}} {
		for _, tc := range cases {
			t.Run(op.name+"/"+tc.name, func(t *testing.T) {
				v, err := op.call(tc.id)
				if tc.wantErr == nil {
					if err != nil || v != tc.wantValue {
						t.Fatalf("= %d, %v; want %d", v, err, tc.wantValue)
					}
					return
				}
				if err == nil {
					t.Fatalf("= %d, nil; want an error", v)
				}
				for _, want := range tc.wantErr {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q lacks %q", err, want)
					}
				}
				if tc.notErr != "" && strings.Contains(err.Error(), tc.notErr) {
					t.Errorf("error %q must not say %q", err, tc.notErr)
				}
			})
		}
	}
	if _, err := tbl.Get(live); err == nil || !strings.Contains(err.Error(), "no cursor") {
		t.Errorf("Get after Remove = %v, want unknown (removed, not expired)", err)
	}
	if len(*evicted) != 1 || (*evicted)[0] != 2 || tbl.Expired() != 1 {
		t.Errorf("evicted %v, Expired() %d; want [2] and 1", *evicted, tbl.Expired())
	}
}

// TestPinned: the exempt entry (the server's default session "") never
// expires, cannot be removed, and is not counted.
func TestPinned(t *testing.T) {
	tbl, clk, evicted := newTable(time.Minute, 1)
	tbl.Pin("", 7)
	if tbl.Len() != 0 || len(tbl.Values()) != 0 {
		t.Errorf("Len %d, Values %v: a pinned entry is not an open one", tbl.Len(), tbl.Values())
	}
	if _, err := tbl.Add(1); err != nil {
		t.Errorf("Add with only the pinned entry present: %v (it must not count against the limit)", err)
	}
	clk.advance(time.Hour)
	tbl.Sweep(clk.now())
	if v, err := tbl.Get(""); err != nil || v != 7 {
		t.Errorf("pinned entry after an hour idle: %d, %v", v, err)
	}
	if _, err := tbl.Remove(""); err == nil || !strings.Contains(err.Error(), `no cursor ""`) {
		t.Errorf("Remove(pinned) = %v, want the unknown error", err)
	}
	if v, err := tbl.Get(""); err != nil || v != 7 {
		t.Errorf("pinned entry after Remove: %d, %v", v, err)
	}
	if len(*evicted) != 1 || (*evicted)[0] != 1 {
		t.Errorf("evicted %v, want only the unpinned entry [1]", *evicted)
	}
}

// TestSweepCadence: table accesses rescan at most once per ttl/8, so an
// entry past its TTL stays listed until the next due sweep — and is
// collected by the first access after it.
func TestSweepCadence(t *testing.T) {
	const ttl = 80 * time.Second // sweeps are due every 10s
	tbl, clk, _ := newTable(ttl, 0)
	tbl.Add(1)
	clk.advance(ttl - time.Second)
	tbl.Get("cur-none") // a sweep runs (79s since the last); nothing has expired
	if tbl.Len() != 1 {
		t.Fatal("collected before the TTL")
	}
	clk.advance(9 * time.Second) // entry idle 88s > ttl, but only 9s since the sweep
	tbl.Get("cur-none")
	if tbl.Len() != 1 || tbl.Expired() != 0 {
		t.Errorf("Len %d, Expired %d: swept again within ttl/8", tbl.Len(), tbl.Expired())
	}
	clk.advance(time.Second) // now 10s since the sweep: due
	tbl.Get("cur-none")
	if tbl.Len() != 0 || tbl.Expired() != 1 {
		t.Errorf("Len %d, Expired %d: the due sweep did not collect", tbl.Len(), tbl.Expired())
	}

	// Without a TTL nothing is ever collected, however idle.
	forever, clk2, _ := newTable(0, 0)
	forever.Add(1)
	clk2.advance(1000 * time.Hour)
	forever.Sweep(clk2.now())
	if forever.Len() != 1 {
		t.Error("a table without a TTL collected an entry")
	}
}

// TestTombstoneCap: the record of collected ids is bounded; when it
// fills it restarts, degrading old ids from "expired" to "unknown".
func TestTombstoneCap(t *testing.T) {
	tbl, clk, _ := newTable(time.Minute, 0)
	first, _ := tbl.Add(0)
	for i := 1; i < maxTombstones; i++ {
		tbl.Add(i)
	}
	clk.advance(2 * time.Minute)
	tbl.Sweep(clk.now()) // fills the tombstones exactly
	if _, err := tbl.Get(first); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("Get(first) with a full tombstone record = %v, want expired", err)
	}
	last, _ := tbl.Add(-1)
	clk.advance(2 * time.Minute)
	tbl.Sweep(clk.now()) // one more: the record restarts
	if _, err := tbl.Get(last); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Errorf("Get(last) = %v, want expired", err)
	}
	if _, err := tbl.Get(first); err == nil || !strings.Contains(err.Error(), "no cursor") {
		t.Errorf("Get(first) after the record restarted = %v, want unknown", err)
	}
	if len(tbl.tombs) != 1 || tbl.Expired() != maxTombstones+1 {
		t.Errorf("%d tombstones, Expired() %d; want 1 and %d", len(tbl.tombs), tbl.Expired(), maxTombstones+1)
	}
}

// TestLimit: Add refuses past the limit, and room made by Remove or by
// the TTL is usable again.
func TestLimit(t *testing.T) {
	tbl, clk, _ := newTable(time.Minute, 2)
	a, _ := tbl.Add(1)
	tbl.Add(2)
	_, err := tbl.Add(3)
	if err == nil || err.Error() != "already holds 2 open cursors; close some via /cursor/close" {
		t.Fatalf("Add past the limit = %v", err)
	}
	tbl.Remove(a)
	if _, err := tbl.Add(3); err != nil {
		t.Errorf("Add after Remove: %v", err)
	}
	clk.advance(2 * time.Minute)
	if id, err := tbl.Add(4); err != nil || id != "cur-4" {
		t.Errorf("Add after the others expired = %q, %v; want cur-4 (failed Adds mint no id)", id, err)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tbl.Len())
	}
}

// TestOnEvictRunsUnlocked: the eviction hook may block on, and call back
// into, the table (the router's does network I/O; the server's takes the
// entry's lock). Under the table lock this test would deadlock.
func TestOnEvictRunsUnlocked(t *testing.T) {
	var tbl *Table[int]
	var seen []int
	tbl = New(Spec[int]{
		Kind: "cursor", Prefix: "cur", TTL: time.Minute,
		OnEvict: func(v int) {
			seen = append(seen, tbl.Len()) // re-enters t.mu
			if _, err := tbl.Get(fmt.Sprintf("cur-%d", v)); err == nil || !strings.Contains(err.Error(), "expired") {
				t.Errorf("OnEvict(%d): the entry is still resolvable: %v", v, err)
			}
		},
	})
	tbl.Add(1)
	tbl.Add(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tbl.Sweep(time.Now().Add(time.Hour))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Sweep deadlocked: OnEvict ran under the table lock")
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 0 {
		t.Errorf("OnEvict saw Len() = %v, want [0 0]", seen)
	}
}

// TestConcurrentUse mixes every operation across goroutines while the
// clock runs; each entry is released exactly once — by the goroutine
// that removed it or by the TTL, never both — and -race sees the
// accesses.
func TestConcurrentUse(t *testing.T) {
	const workers, ops = 8, 300
	clk := &clock{t: time.Unix(1_000_000, 0)}
	var mu sync.Mutex
	released := map[int]int{}
	release := func(v int) {
		mu.Lock()
		released[v]++
		mu.Unlock()
	}
	tbl := New(Spec[int]{Kind: "cursor", Prefix: "cur", TTL: time.Second, Limit: 64, OnEvict: release})
	tbl.now, tbl.lastSweep = clk.now, clk.now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				v := w*ops + i
				id, err := tbl.Add(v)
				if err != nil {
					release(v) // refused: never entered the table
					continue
				}
				clk.advance(20 * time.Millisecond)
				tbl.Get(id)
				tbl.Len()
				tbl.Values()
				if i%3 == 0 {
					if got, err := tbl.Remove(id); err == nil {
						release(got)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	clk.advance(time.Hour)
	tbl.Sweep(clk.now())
	if tbl.Len() != 0 {
		t.Errorf("%d entries survived the final sweep", tbl.Len())
	}
	if tbl.Expired() == 0 {
		t.Error("the TTL collected nothing while the workers ran")
	}
	for v := 0; v < workers*ops; v++ {
		if released[v] != 1 {
			t.Fatalf("entry %d released %d times, want exactly once", v, released[v])
		}
	}
}
