package insight

import (
	"net/http"
	"sort"
	"time"

	"ranksql/internal/wire"
)

// Workload is the /insight/workload payload: a rolling summary of the
// sampled record window.
type Workload struct {
	RingCapacity    int    `json:"ring_capacity"`
	RingDepth       int    `json:"ring_depth"`
	RecordsObserved uint64 `json:"records_observed"`

	// Window bounds of the live records.
	OldestAt string  `json:"oldest_at,omitempty"`
	NewestAt string  `json:"newest_at,omitempty"`
	SpanSec  float64 `json:"span_sec"`

	// Totals over the live records.
	RowsReturned       int64 `json:"rows_returned"`
	TuplesScanned      int64 `json:"tuples_scanned"`
	TuplesMaterialized int64 `json:"tuples_materialized"`

	// Drift counters (lifetime, not window).
	RecordsWithEstimates uint64  `json:"records_with_estimates"`
	HighDriftRecords     uint64  `json:"high_drift_records"`
	MaxDriftRatio        float64 `json:"max_drift_ratio"`

	Templates []TemplateShare `json:"templates"`
}

// TemplateShare is one template's slice of the sampled window.
type TemplateShare struct {
	Template string  `json:"template"`
	Count    int     `json:"count"`
	Share    float64 `json:"share"`
}

// DepthKBucket is one bucket of a depth-k distribution: Count records
// reached a depth of enumeration in (previous bound, UpperBound].
type DepthKBucket struct {
	UpperBound int64 `json:"le"`
	Count      int   `json:"count"`
}

// Footprint summarizes a template's per-record resource usage at the
// 95th percentile (exact over the window, not interpolated).
type Footprint struct {
	P95DurationMS   float64 `json:"p95_duration_ms"`
	P95Scanned      int64   `json:"p95_tuples_scanned"`
	P95Materialized int64   `json:"p95_tuples_materialized"`
	P95PeakBuffered int64   `json:"p95_peak_buffered"`
	MaxPinnedBytes  int64   `json:"max_cursor_pinned_bytes,omitempty"`
}

// DriftProfile is a template's aggregated estimate error.
type DriftProfile struct {
	Records   int     `json:"records"`
	MeanRatio float64 `json:"mean_ratio"`
	MaxRatio  float64 `json:"max_ratio"`
	// WorstNode is the plan node with the highest ratio seen.
	WorstNode string `json:"worst_node,omitempty"`
}

// ShardProfile is a template's per-shard attribution (router only):
// rows fetched from the shard and how often the merge pruned it.
type ShardProfile struct {
	Shard       int   `json:"shard"`
	RowsFetched int64 `json:"rows_fetched"`
	PrunedCount int   `json:"pruned_count"`
	Queries     int   `json:"queries"`
}

// TemplateProfile is one /insight/templates entry.
type TemplateProfile struct {
	Template string  `json:"template"`
	Count    int     `json:"count"`
	Share    float64 `json:"share"`

	DepthKMin     int64          `json:"depth_k_min"`
	DepthKMax     int64          `json:"depth_k_max"`
	DepthKP95     int64          `json:"depth_k_p95"`
	DepthKBuckets []DepthKBucket `json:"depth_k_dist"`

	Footprint Footprint      `json:"footprint"`
	Drift     *DriftProfile  `json:"drift,omitempty"`
	Shards    []ShardProfile `json:"shards,omitempty"`
}

// ServeWorkload serves GET /insight/workload: the rolling summary of the
// recorded window (ring occupancy, window bounds, resource totals, drift
// counters, template frequency shares).
func (r *Ring) ServeWorkload(w http.ResponseWriter, req *http.Request) {
	if getOnly(w, req) {
		workload, _ := Aggregate(r)
		wire.WriteJSON(w, http.StatusOK, workload)
	}
}

// ServeTemplates serves GET /insight/templates: per-template profiles —
// frequency, depth-k distribution, p95 resource footprint, estimate-drift
// ratios and, on the router, per-shard attribution — most frequent first.
func (r *Ring) ServeTemplates(w http.ResponseWriter, req *http.Request) {
	if getOnly(w, req) {
		_, templates := Aggregate(r)
		wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"templates": templates})
	}
}

func getOnly(w http.ResponseWriter, req *http.Request) bool {
	if req.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return false
	}
	return true
}

// Aggregate rolls a ring snapshot into the workload summary plus
// per-template profiles, most frequent template first.
func Aggregate(r *Ring) (*Workload, []TemplateProfile) {
	recs := r.Snapshot()
	w := &Workload{
		RingCapacity:         r.Capacity(),
		RingDepth:            len(recs),
		RecordsObserved:      r.Observed(),
		RecordsWithEstimates: r.WithEstimates(),
		HighDriftRecords:     r.HighDrift(),
	}
	if len(recs) == 0 {
		w.Templates = []TemplateShare{}
		return w, []TemplateProfile{}
	}

	byTemplate := map[string][]*QueryRecord{}
	oldest, newest := recs[0].When, recs[0].When
	for _, rec := range recs {
		byTemplate[rec.Template] = append(byTemplate[rec.Template], rec)
		if rec.When.Before(oldest) {
			oldest = rec.When
		}
		if rec.When.After(newest) {
			newest = rec.When
		}
		w.RowsReturned += int64(rec.RowsReturned)
		w.TuplesScanned += rec.TuplesScanned
		w.TuplesMaterialized += rec.TuplesMaterialized
		if rec.MaxDriftRatio > w.MaxDriftRatio {
			w.MaxDriftRatio = rec.MaxDriftRatio
		}
	}
	w.OldestAt = oldest.UTC().Format(time.RFC3339Nano)
	w.NewestAt = newest.UTC().Format(time.RFC3339Nano)
	w.SpanSec = newest.Sub(oldest).Seconds()

	profiles := make([]TemplateProfile, 0, len(byTemplate))
	for tmpl, trecs := range byTemplate {
		profiles = append(profiles, profileTemplate(tmpl, trecs, len(recs)))
		w.Templates = append(w.Templates, TemplateShare{
			Template: tmpl,
			Count:    len(trecs),
			Share:    float64(len(trecs)) / float64(len(recs)),
		})
	}
	sort.Slice(profiles, func(i, j int) bool {
		if profiles[i].Count != profiles[j].Count {
			return profiles[i].Count > profiles[j].Count
		}
		return profiles[i].Template < profiles[j].Template
	})
	sort.Slice(w.Templates, func(i, j int) bool {
		if w.Templates[i].Count != w.Templates[j].Count {
			return w.Templates[i].Count > w.Templates[j].Count
		}
		return w.Templates[i].Template < w.Templates[j].Template
	})
	return w, profiles
}

func profileTemplate(tmpl string, recs []*QueryRecord, total int) TemplateProfile {
	p := TemplateProfile{
		Template: tmpl,
		Count:    len(recs),
		Share:    float64(len(recs)) / float64(total),
	}
	depths := make([]int64, len(recs))
	durations := make([]float64, len(recs))
	scanned := make([]int64, len(recs))
	materialized := make([]int64, len(recs))
	buffered := make([]int64, len(recs))
	var drift DriftProfile
	var ratioSum float64
	shards := map[int]*ShardProfile{}
	for i, rec := range recs {
		depths[i] = rec.DepthK
		durations[i] = rec.DurationMS
		scanned[i] = rec.TuplesScanned
		materialized[i] = rec.TuplesMaterialized
		buffered[i] = rec.PeakBuffered
		if rec.CursorPinnedBytes > p.Footprint.MaxPinnedBytes {
			p.Footprint.MaxPinnedBytes = rec.CursorPinnedBytes
		}
		if len(rec.Drift) > 0 {
			drift.Records++
			ratioSum += rec.MaxDriftRatio
			for _, d := range rec.Drift {
				if d.Ratio > drift.MaxRatio {
					drift.MaxRatio = d.Ratio
					drift.WorstNode = d.Node
				}
			}
		}
		for _, s := range rec.Shards {
			sp := shards[s.Shard]
			if sp == nil {
				sp = &ShardProfile{Shard: s.Shard}
				shards[s.Shard] = sp
			}
			sp.Queries++
			sp.RowsFetched += s.RowsFetched
			if s.Pruned {
				sp.PrunedCount++
			}
		}
	}
	sort.Slice(depths, func(i, j int) bool { return depths[i] < depths[j] })
	sort.Float64s(durations)
	sort.Slice(scanned, func(i, j int) bool { return scanned[i] < scanned[j] })
	sort.Slice(materialized, func(i, j int) bool { return materialized[i] < materialized[j] })
	sort.Slice(buffered, func(i, j int) bool { return buffered[i] < buffered[j] })

	p.DepthKMin = depths[0]
	p.DepthKMax = depths[len(depths)-1]
	p.DepthKP95 = depths[p95Index(len(depths))]
	p.DepthKBuckets = depthKDist(depths)
	p.Footprint.P95DurationMS = durations[p95Index(len(durations))]
	p.Footprint.P95Scanned = scanned[p95Index(len(scanned))]
	p.Footprint.P95Materialized = materialized[p95Index(len(materialized))]
	p.Footprint.P95PeakBuffered = buffered[p95Index(len(buffered))]
	if drift.Records > 0 {
		drift.MeanRatio = ratioSum / float64(drift.Records)
		p.Drift = &drift
	}
	if len(shards) > 0 {
		for _, sp := range shards {
			p.Shards = append(p.Shards, *sp)
		}
		sort.Slice(p.Shards, func(i, j int) bool { return p.Shards[i].Shard < p.Shards[j].Shard })
	}
	return p
}

// p95Index is the 95th-percentile index of a sorted slice of length n
// (nearest-rank method).
func p95Index(n int) int {
	i := (n*95 + 99) / 100
	if i < 1 {
		i = 1
	}
	return i - 1
}

// depthKDist buckets sorted depth-k samples into power-of-two upper
// bounds (1, 2, 4, ... doubling), emitting only occupied buckets.
func depthKDist(sorted []int64) []DepthKBucket {
	var out []DepthKBucket
	bound := int64(1)
	count := 0
	for _, d := range sorted {
		for d > bound {
			if count > 0 {
				out = append(out, DepthKBucket{UpperBound: bound, Count: count})
				count = 0
			}
			bound *= 2
		}
		count++
	}
	if count > 0 {
		out = append(out, DepthKBucket{UpperBound: bound, Count: count})
	}
	return out
}
