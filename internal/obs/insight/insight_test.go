package insight

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestDriftRatio(t *testing.T) {
	cases := []struct {
		est    float64
		actual int64
		want   float64
	}{
		{10, 10, 1},
		{10, 40, 4},
		{40, 10, 4}, // symmetric: under-estimates read the same as over
		{0.3, 1, 1}, // sub-tuple estimates clamp to 1
		{0, 0, 1},
		{1, 0, 1},
		{2, 1000, 500},
	}
	for _, c := range cases {
		if got := DriftRatio(c.est, c.actual); got != c.want {
			t.Errorf("DriftRatio(%v, %d) = %v, want %v", c.est, c.actual, got, c.want)
		}
	}
}

func TestRingWrapAndCounters(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		rec := &QueryRecord{Template: fmt.Sprintf("q%d", i), When: time.Now()}
		if i%2 == 0 {
			rec.Drift = []NodeDrift{{Node: "scan", Est: 1, Actual: 100, Ratio: 100}}
		}
		r.Record(rec)
	}
	if r.Depth() != 4 {
		t.Errorf("Depth() = %d, want 4 after wrap", r.Depth())
	}
	if r.Observed() != 10 {
		t.Errorf("Observed() = %d, want 10", r.Observed())
	}
	if r.WithEstimates() != 5 {
		t.Errorf("WithEstimates() = %d, want 5", r.WithEstimates())
	}
	if r.HighDrift() != 5 {
		t.Errorf("HighDrift() = %d, want 5 (ratio 100 >= %v)", r.HighDrift(), HighDriftRatio)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot() has %d records, want 4", len(snap))
	}
	// Only the newest 4 survive the wrap.
	seen := map[string]bool{}
	for _, rec := range snap {
		seen[rec.Template] = true
	}
	for _, want := range []string{"q6", "q7", "q8", "q9"} {
		if !seen[want] {
			t.Errorf("Snapshot() lost %s; has %v", want, seen)
		}
	}
	// MaxDriftRatio is filled by Record when unset.
	for _, rec := range snap {
		if len(rec.Drift) > 0 && rec.MaxDriftRatio != 100 {
			t.Errorf("record %s: MaxDriftRatio = %v, want 100", rec.Template, rec.MaxDriftRatio)
		}
	}
}

// TestRingConcurrent hammers the ring from many writers while readers
// snapshot and aggregate; run under -race this pins the lock-cheap
// write path as safe.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(&QueryRecord{
					Template:      fmt.Sprintf("writer%d", w),
					When:          time.Now(),
					DepthK:        int64(i%32 + 1),
					TuplesScanned: int64(i),
					Drift:         []NodeDrift{{Node: "scan", Est: 10, Actual: int64(i), Ratio: DriftRatio(10, int64(i))}},
				})
			}
		}(w)
	}
	var readers sync.WaitGroup
	for rd := 0; rd < 4; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w, profiles := Aggregate(r)
				if w.RingDepth > w.RingCapacity {
					t.Errorf("ring depth %d exceeds capacity %d", w.RingDepth, w.RingCapacity)
					return
				}
				for _, p := range profiles {
					if p.Count <= 0 {
						t.Errorf("template %q has non-positive count", p.Template)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if r.Observed() != writers*perWriter {
		t.Errorf("Observed() = %d, want %d", r.Observed(), writers*perWriter)
	}
}

func TestAggregateTemplates(t *testing.T) {
	r := NewRing(32)
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	// 10 cheap "hot" queries, 2 expensive "cold" ones with drift and
	// shard attribution.
	for i := 0; i < 10; i++ {
		r.Record(&QueryRecord{
			Template:           "SELECT hot",
			When:               base.Add(time.Duration(i) * time.Second),
			DurationMS:         float64(i + 1),
			RowsReturned:       10,
			DepthK:             int64(i + 1), // 1..10
			TuplesScanned:      100,
			TuplesMaterialized: 20,
			PeakBuffered:       5,
		})
	}
	for i := 0; i < 2; i++ {
		r.Record(&QueryRecord{
			Template:      "SELECT cold",
			When:          base.Add(time.Minute),
			DurationMS:    100,
			DepthK:        64,
			TuplesScanned: 5000,
			Drift: []NodeDrift{
				{Node: "HRJN", Est: 10, Actual: 80, Ratio: 8},
				{Node: "seqScan", Est: 100, Actual: 100, Ratio: 1},
			},
			Shards: []ShardUsage{
				{Shard: 0, RowsFetched: 40, Pruned: false},
				{Shard: 1, RowsFetched: 10, Pruned: true},
			},
		})
	}

	w, profiles := Aggregate(r)
	if w.RingDepth != 12 || w.RecordsObserved != 12 {
		t.Fatalf("workload window = depth %d / observed %d, want 12/12", w.RingDepth, w.RecordsObserved)
	}
	if w.TuplesScanned != 10*100+2*5000 {
		t.Errorf("TuplesScanned = %d, want %d", w.TuplesScanned, 10*100+2*5000)
	}
	if w.RecordsWithEstimates != 2 || w.HighDriftRecords != 2 {
		t.Errorf("drift counters = %d/%d, want 2/2", w.RecordsWithEstimates, w.HighDriftRecords)
	}
	if w.MaxDriftRatio != 8 {
		t.Errorf("MaxDriftRatio = %v, want 8", w.MaxDriftRatio)
	}
	if len(profiles) != 2 {
		t.Fatalf("got %d profiles, want 2", len(profiles))
	}
	hot, cold := profiles[0], profiles[1]
	if hot.Template != "SELECT hot" || hot.Count != 10 {
		t.Fatalf("profiles[0] = %q count %d; want the most frequent template first", hot.Template, hot.Count)
	}
	if hot.Share < 0.8 || hot.Share > 0.9 {
		t.Errorf("hot share = %v, want 10/12", hot.Share)
	}
	if hot.DepthKMin != 1 || hot.DepthKMax != 10 || hot.DepthKP95 != 10 {
		t.Errorf("hot depth-k min/max/p95 = %d/%d/%d, want 1/10/10",
			hot.DepthKMin, hot.DepthKMax, hot.DepthKP95)
	}
	// Depth-k distribution buckets are power-of-two bounds; depths 1..10
	// land in le=1 (1), le=2 (2), le=4 (3,4), le=8 (5..8), le=16 (9,10).
	wantBuckets := []DepthKBucket{{1, 1}, {2, 1}, {4, 2}, {8, 4}, {16, 2}}
	if len(hot.DepthKBuckets) != len(wantBuckets) {
		t.Fatalf("hot depth-k dist = %+v, want %+v", hot.DepthKBuckets, wantBuckets)
	}
	for i, b := range wantBuckets {
		if hot.DepthKBuckets[i] != b {
			t.Errorf("hot bucket %d = %+v, want %+v", i, hot.DepthKBuckets[i], b)
		}
	}
	if hot.Footprint.P95DurationMS != 10 || hot.Footprint.P95Scanned != 100 {
		t.Errorf("hot footprint = %+v, want p95 duration 10, scanned 100", hot.Footprint)
	}
	if hot.Drift != nil {
		t.Errorf("hot profile has drift %+v, want none", hot.Drift)
	}
	if cold.Drift == nil {
		t.Fatal("cold profile missing drift")
	}
	if cold.Drift.Records != 2 || cold.Drift.MaxRatio != 8 || cold.Drift.WorstNode != "HRJN" {
		t.Errorf("cold drift = %+v, want 2 records, max 8, worst HRJN", cold.Drift)
	}
	if cold.Drift.MeanRatio != 8 {
		t.Errorf("cold mean ratio = %v, want 8 (max ratio per record)", cold.Drift.MeanRatio)
	}
	if len(cold.Shards) != 2 {
		t.Fatalf("cold shards = %+v, want 2 entries", cold.Shards)
	}
	if cold.Shards[0].RowsFetched != 80 || cold.Shards[0].PrunedCount != 0 {
		t.Errorf("shard 0 = %+v, want 80 rows over 2 queries, never pruned", cold.Shards[0])
	}
	if cold.Shards[1].RowsFetched != 20 || cold.Shards[1].PrunedCount != 2 {
		t.Errorf("shard 1 = %+v, want 20 rows, pruned both times", cold.Shards[1])
	}
}

func TestAggregateEmptyRing(t *testing.T) {
	w, profiles := Aggregate(NewRing(8))
	if w.RingDepth != 0 || len(profiles) != 0 {
		t.Fatalf("empty ring aggregated to depth %d, %d profiles", w.RingDepth, len(profiles))
	}
	if w.Templates == nil {
		t.Error("Templates should be an empty slice, not nil (JSON [])")
	}
}

func TestP95Index(t *testing.T) {
	cases := []struct{ n, want int }{{1, 0}, {2, 1}, {10, 9}, {20, 18}, {100, 94}}
	for _, c := range cases {
		if got := p95Index(c.n); got != c.want {
			t.Errorf("p95Index(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
