package router

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"ranksql/internal/server"
)

// fakeStream is a deterministic in-memory ranked stream whose Fetch
// sleeps a pseudo-random sliver so concurrent initial fetches arrive in
// a different interleaving every run.
type fakeStream struct {
	rows   [][]interface{}
	scores []float64
	rng    server.Rng
	jitter bool

	asked []int // n of every Fetch call, in order
	depth int   // deepest prefix handed out
}

func (f *fakeStream) Fetch(n int) ([][]interface{}, []float64, bool, error) {
	f.asked = append(f.asked, n)
	if f.jitter {
		time.Sleep(time.Duration(f.rng.Intn(150)) * time.Microsecond)
	}
	if n <= 0 || n >= len(f.rows) {
		f.depth = len(f.rows)
		return f.rows, f.scores, true, nil
	}
	if n > f.depth {
		f.depth = n
	}
	return f.rows[:n], f.scores[:n], false, nil
}

// taggedRow identifies one row globally for exact-order comparison.
type taggedRow struct {
	score  float64
	stream int
	pos    int
}

// buildStreams generates s streams with grid-valued scores (ties are
// frequent, within and across streams), each sorted non-increasing.
func buildStreams(rng *server.Rng, s int, jitter bool) ([]*fakeStream, []taggedRow) {
	var all []taggedRow
	streams := make([]*fakeStream, s)
	for i := 0; i < s; i++ {
		n := rng.Intn(31) // 0..30 rows; empty streams included
		scores := make([]float64, n)
		for j := range scores {
			scores[j] = float64(rng.Intn(11)) / 10
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		fs := &fakeStream{rng: server.NewRng(rng.Next() | 1), jitter: jitter}
		for j, sc := range scores {
			fs.rows = append(fs.rows, []interface{}{fmt.Sprintf("s%d-r%d", i, j)})
			fs.scores = append(fs.scores, sc)
			all = append(all, taggedRow{score: sc, stream: i, pos: j})
		}
		streams[i] = fs
	}
	// The reference order is exactly the merge's documented tie-break:
	// score desc, stream asc, position asc.
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		if all[a].stream != all[b].stream {
			return all[a].stream < all[b].stream
		}
		return all[a].pos < all[b].pos
	})
	return streams, all
}

// runMergeProperty checks MergeTopK against the reference order for
// randomized stream sets, ks and initial fetch depths. Because the
// tie-break is total and deterministic, the comparison is exact — any
// arrival interleaving must yield the identical row sequence.
func runMergeProperty(t *testing.T, iters int, seed uint64, jitter bool) {
	rng := server.NewRng(seed)
	for iter := 0; iter < iters; iter++ {
		nStreams := 1 + rng.Intn(6)
		streams, ref := buildStreams(&rng, nStreams, jitter)
		total := len(ref)
		k := rng.Intn(total + 5) // includes 0 (drain everything) and > total
		initial := 1 + rng.Intn(5)

		ss := make([]Stream, len(streams))
		for i, s := range streams {
			ss[i] = s
		}
		merged, err := MergeTopK(ss, k, initial)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}

		want := total
		if k > 0 && k < total {
			want = k
		}
		label := fmt.Sprintf("iter=%d streams=%d total=%d k=%d initial=%d", iter, nStreams, total, k, initial)
		if len(merged.Rows) != want {
			t.Fatalf("%s: merged %d rows, want %d", label, len(merged.Rows), want)
		}
		for i := 0; i < want; i++ {
			if merged.Scores[i] != ref[i].score {
				t.Fatalf("%s: score[%d] = %g, want %g", label, i, merged.Scores[i], ref[i].score)
			}
			wantRow := fmt.Sprintf("s%d-r%d", ref[i].stream, ref[i].pos)
			if got := merged.Rows[i][0].(string); got != wantRow {
				t.Fatalf("%s: row[%d] = %s, want %s (tie-break violated)", label, i, got, wantRow)
			}
			if merged.Origin[i] != ref[i].stream {
				t.Fatalf("%s: origin[%d] = %d, want %d", label, i, merged.Origin[i], ref[i].stream)
			}
		}
		if k <= 0 || k >= total {
			if !merged.Exhausted {
				t.Fatalf("%s: full drain not marked exhausted", label)
			}
			if len(merged.Pruned) != 0 {
				t.Fatalf("%s: full drain pruned streams %v", label, merged.Pruned)
			}
		}
		// Threshold-correctness: a pruned stream's bound (the last score
		// of the prefix it handed out) must not beat the k-th emitted
		// score — otherwise its unfetched tail could have mattered.
		if n := len(merged.Scores); n > 0 {
			kth := merged.Scores[n-1]
			for _, p := range merged.Pruned {
				fs := streams[p]
				if fs.depth == 0 {
					t.Fatalf("%s: stream %d pruned without any fetch", label, p)
				}
				if bound := fs.scores[fs.depth-1]; bound > kth {
					t.Fatalf("%s: pruned stream %d has bound %g > kth score %g", label, p, bound, kth)
				}
			}
		}
	}
}

// TestMergeProperty is the merge-operator property suite: any
// interleaving of shard stream arrivals yields the same top-k, with
// duplicate scores and ties resolved deterministically.
func TestMergeProperty(t *testing.T) {
	runMergeProperty(t, mergeIters, 0xBEEF, true)
}

// TestMergePropertySerial re-runs the property without arrival jitter
// (pure logic coverage at higher speed).
func TestMergePropertySerial(t *testing.T) {
	runMergeProperty(t, mergeIters, 0xF00D, false)
}

// TestMergeEmpty pins the degenerate cases.
func TestMergeEmpty(t *testing.T) {
	m, err := MergeTopK(nil, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rows) != 0 || !m.Exhausted {
		t.Fatalf("empty merge: %+v", m)
	}
	m, err = MergeTopK([]Stream{&fakeStream{}, &fakeStream{}}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rows) != 0 || !m.Exhausted || len(m.Pruned) != 0 {
		t.Fatalf("all-empty-stream merge: %+v", m)
	}
}

// TestMergeRefillAdditive checks that a skewed cluster (one stream holds
// every top row) refills the hot stream by the first fetch's depth each
// time, never re-fetching the cold one.
func TestMergeRefillAdditive(t *testing.T) {
	hot := &fakeStream{}
	for i := 0; i < 64; i++ {
		hot.rows = append(hot.rows, []interface{}{i})
		hot.scores = append(hot.scores, 1-float64(i)/1000)
	}
	cold := &fakeStream{}
	for i := 0; i < 64; i++ {
		cold.rows = append(cold.rows, []interface{}{i})
		cold.scores = append(cold.scores, 0.1)
	}
	m, err := MergeTopK([]Stream{hot, cold}, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rows) != 32 {
		t.Fatalf("got %d rows, want 32", len(m.Rows))
	}
	for i, o := range m.Origin {
		if o != 0 {
			t.Fatalf("row %d came from the cold stream", i)
		}
	}
	if want := []int{4, 8, 12, 16, 20, 24, 28, 32}; !slices.Equal(hot.asked, want) {
		t.Fatalf("hot stream fetched %v deep, want %v", hot.asked, want)
	}
	if m.Refills != 7 {
		t.Fatalf("merge reported %d refills, want 7", m.Refills)
	}
	// Neither stream was drained: the cold one was cut off by the
	// threshold bound after its initial fetch, the hot one right at k.
	if len(m.Pruned) != 2 {
		t.Fatalf("both streams should end undrained (pruned), got %v", m.Pruned)
	}
	if len(cold.asked) != 1 {
		t.Fatalf("cold stream fetched %d times; the threshold bound should stop it at 1", len(cold.asked))
	}
}

// BenchmarkMergeTopK prices the threshold merge alone, over in-memory
// streams: stream 0 holds every top row and the threshold bound cuts the
// cold streams off. Every stream's first fetch is k deep, as the router's
// is, so the merge never refills.
func BenchmarkMergeTopK(b *testing.B) {
	for _, n := range []int{2, 4} {
		for _, k := range []int{10, 50} {
			b.Run(fmt.Sprintf("streams=%d/k=%d", n, k), func(b *testing.B) {
				streams := make([]Stream, n)
				for i := range streams {
					top := 0.5
					if i == 0 {
						top = 1
					}
					fs := &fakeStream{}
					for j := 0; j < 2*k; j++ {
						fs.rows = append(fs.rows, []interface{}{j})
						fs.scores = append(fs.scores, top-float64(j)/1000)
					}
					streams[i] = fs
				}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := MergeTopK(streams, k, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
