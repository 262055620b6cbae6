package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// model checks the tree against a sorted slice oracle.
type modelEntry struct {
	key float64
	tid schema.TID
}

func buildBoth(keys []float64) (*Tree, []modelEntry) {
	t := New()
	var model []modelEntry
	for i, k := range keys {
		t.Insert(types.NewFloat(k), schema.TID(i))
		model = append(model, modelEntry{k, schema.TID(i)})
	}
	sort.Slice(model, func(i, j int) bool {
		if model[i].key != model[j].key {
			return model[i].key < model[j].key
		}
		return model[i].tid < model[j].tid
	})
	return t, model
}

func TestAscendDescendSmall(t *testing.T) {
	tr, model := buildBoth([]float64{5, 1, 3, 3, 2, 9, 0.5})
	if tr.Len() != len(model) {
		t.Fatalf("len %d, want %d", tr.Len(), len(model))
	}
	it := tr.Ascend()
	for i := 0; ; i++ {
		e, ok := it.Next()
		if !ok {
			if i != len(model) {
				t.Fatalf("ascend stopped at %d, want %d", i, len(model))
			}
			break
		}
		if e.Key.Float() != model[i].key || e.TID != model[i].tid {
			t.Fatalf("ascend[%d] = (%v,%d), want (%v,%d)", i, e.Key, e.TID, model[i].key, model[i].tid)
		}
	}
	it = tr.Descend()
	for i := len(model) - 1; ; i-- {
		e, ok := it.Next()
		if !ok {
			if i != -1 {
				t.Fatalf("descend stopped early")
			}
			break
		}
		if e.Key.Float() != model[i].key {
			t.Fatalf("descend got %v, want %v", e.Key, model[i].key)
		}
	}
}

// TestRandomizedVsOracle drives large random insertions through splits and
// verifies both iteration directions and SeekGE against the oracle.
func TestRandomizedVsOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 5000
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(r.Intn(500)) // heavy duplicates
	}
	tr, model := buildBoth(keys)
	if tr.Len() != n {
		t.Fatalf("len %d, want %d", tr.Len(), n)
	}
	if tr.Height() < 2 {
		t.Fatal("tree did not split; test ineffective")
	}

	i := 0
	it := tr.Ascend()
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if e.Key.Float() != model[i].key || e.TID != model[i].tid {
			t.Fatalf("ascend[%d] mismatch", i)
		}
		i++
	}
	if i != n {
		t.Fatalf("ascend visited %d, want %d", i, n)
	}

	// SeekGE at random probes.
	for probe := 0; probe < 200; probe++ {
		k := float64(r.Intn(520)) - 10
		it := tr.SeekGE(types.NewFloat(k))
		// Oracle position: first model entry with key >= k.
		pos := sort.Search(len(model), func(i int) bool { return model[i].key >= k })
		e, ok := it.Next()
		if pos == len(model) {
			if ok {
				t.Fatalf("SeekGE(%v) returned %v, want exhausted", k, e)
			}
			continue
		}
		if !ok || e.Key.Float() != model[pos].key {
			t.Fatalf("SeekGE(%v) = %v, want key %v", k, e, model[pos].key)
		}
	}
}

// TestIteratorsSurviveInserts suspends Ascend, Descend and SeekGE
// iterators — fresh, part-way and exhausted ones — across thousands of
// Inserts that split leaves and the root. Filtered to the TIDs that
// existed when it was opened, each iterator must yield exactly the sorted
// snapshot as of its opening: no duplicate, no gap. Unfiltered, its
// output must never step backwards.
func TestIteratorsSurviveInserts(t *testing.T) {
	type suspended struct {
		it     *Iterator
		bound  schema.TID // TIDs below it existed at opening
		desc   bool
		from   float64 // SeekGE key; -1 for Ascend and Descend
		got    []Entry // output below bound
		last   Entry
		pulled bool
	}
	r := rand.New(rand.NewSource(11))
	tr := New()
	var open []*suspended
	openIter := func(tid int) {
		s := &suspended{bound: schema.TID(tid), from: -1}
		switch r.Intn(3) {
		case 0:
			s.it = tr.Ascend()
		case 1:
			s.it, s.desc = tr.Descend(), true
		default:
			s.from = float64(r.Intn(420)) - 10
			s.it = tr.SeekGE(types.NewFloat(s.from))
		}
		open = append(open, s)
	}
	pull := func(s *suspended, n int) {
		for ; n > 0; n-- {
			e, ok := s.it.Next()
			if !ok {
				return
			}
			if s.pulled {
				c := compareEntries(s.last, e)
				if (s.desc && c <= 0) || (!s.desc && c >= 0) {
					t.Fatalf("iterator (desc=%v) stepped from %v to %v", s.desc, s.last, e)
				}
			}
			s.last, s.pulled = e, true
			if e.TID < s.bound {
				s.got = append(s.got, e)
			}
		}
	}

	const n = 6000
	all := make([]Entry, 0, n)
	for i := 0; i < 3; i++ {
		openIter(0) // on the empty tree: exhausted before any insert
	}
	for tid := 0; tid < n; tid++ {
		e := Entry{Key: types.NewFloat(float64(r.Intn(400))), TID: schema.TID(tid)}
		tr.Insert(e.Key, e.TID)
		all = append(all, e)
		switch x := r.Intn(40); {
		case x < 3:
			openIter(tid + 1)
		case x < 16 && len(open) > 0:
			pull(open[r.Intn(len(open))], r.Intn(25))
		case x == 16 && len(open) > 0:
			pull(open[r.Intn(len(open))], n) // drain: exhausted until the next insert
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d: the root never split; test ineffective", tr.Height())
	}
	for _, s := range open {
		pull(s, n+1)
	}

	// The oracle: every inserted entry, sorted once.
	sort.Slice(all, func(i, j int) bool { return compareEntries(all[i], all[j]) < 0 })
	for i, s := range open {
		var want []Entry
		for _, e := range all {
			if e.TID < s.bound && e.Key.Float() >= s.from {
				want = append(want, e)
			}
		}
		if s.desc {
			for a, b := 0, len(want)-1; a < b; a, b = a+1, b-1 {
				want[a], want[b] = want[b], want[a]
			}
		}
		if len(s.got) != len(want) {
			t.Fatalf("iterator %d (desc=%v from=%v bound=%d): %d entries, want %d",
				i, s.desc, s.from, s.bound, len(s.got), len(want))
		}
		for j := range want {
			if compareEntries(s.got[j], want[j]) != 0 {
				t.Fatalf("iterator %d (desc=%v from=%v bound=%d): entry %d = %v, want %v",
					i, s.desc, s.from, s.bound, j, s.got[j], want[j])
			}
		}
	}
}

func TestDuplicateInsertIgnored(t *testing.T) {
	tr := New()
	tr.Insert(types.NewInt(1), 7)
	tr.Insert(types.NewInt(1), 7)
	if tr.Len() != 1 {
		t.Fatalf("len %d, want 1", tr.Len())
	}
}

// TestQuickInsertIterate is a property test: for any key multiset, the
// ascending iteration equals the sorted oracle.
func TestQuickInsertIterate(t *testing.T) {
	prop := func(raw []uint16) bool {
		keys := make([]float64, len(raw))
		for i, k := range raw {
			keys[i] = float64(k % 1000)
		}
		tr, model := buildBoth(keys)
		it := tr.Ascend()
		for i := 0; ; i++ {
			e, ok := it.Next()
			if !ok {
				return i == len(model)
			}
			if i >= len(model) || e.Key.Float() != model[i].key || e.TID != model[i].tid {
				return false
			}
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMixedKeyKinds(t *testing.T) {
	tr := New()
	tr.Insert(types.NewString("b"), 1)
	tr.Insert(types.NewString("a"), 2)
	tr.Insert(types.NewString("c"), 3)
	it := tr.Ascend()
	var got []string
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, e.Key.Str())
	}
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("string keys misordered: %v", got)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if _, ok := tr.Ascend().Next(); ok {
		t.Error("empty ascend yielded")
	}
	if _, ok := tr.Descend().Next(); ok {
		t.Error("empty descend yielded")
	}
	if _, ok := tr.SeekGE(types.NewInt(0)).Next(); ok {
		t.Error("empty seek yielded")
	}
}
