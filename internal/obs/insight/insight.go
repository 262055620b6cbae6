// Package insight is the query-insight layer: per-query resource
// accounting and rolling workload profiling for the rank-aware engine.
//
// Every sampled execution is condensed into a QueryRecord — template,
// per-operator rows and depth of enumeration, tuples materialized,
// buffer residency, bytes pinned by suspended cursor state, and the
// optimizer's estimated-vs-actual cardinality per plan node — and
// pushed into a fixed-size lock-cheap ring (one atomic increment plus
// one atomic pointer store per record, readers never block writers).
// Aggregation happens on read: the /insight endpoints snapshot the ring
// and roll records into per-template profiles (frequency, depth-k
// distribution, p95 resource footprint, estimate-drift ratios).
//
// The drift figures are the measurement half of the feedback loop the
// ROADMAP's adaptive-optimization item needs: a template whose
// MaxDriftRatio stays high is a template the optimizer keeps planning
// with wrong cardinalities.
package insight

import (
	"sync/atomic"
	"time"
)

// DefaultRingSize is the ring capacity both daemons use: large enough
// to cover minutes of sampled traffic, small enough that a full
// aggregation pass stays cheap on every /insight request.
const DefaultRingSize = 2048

// HighDriftRatio is the drift threshold past which a record counts as
// high-drift: some plan node's actual cardinality was off from its
// estimate by more than this factor (in either direction).
const HighDriftRatio = 4.0

// OpUsage is one operator of a recorded execution: what it produced and
// how deep it enumerated, against the optimizer's estimate. Its JSON form
// is the slow-query log's plan snapshot.
type OpUsage struct {
	Depth  int     `json:"depth"`
	Name   string  `json:"op"`
	Rows   int64   `json:"rows"`
	DepthK int64   `json:"depth_k"`
	TimeMS float64 `json:"time_ms,omitempty"`
	// EstRows is the optimizer's cardinality estimate and Drift the
	// resulting DriftRatio (both omitted when no estimate was aligned).
	EstRows float64 `json:"est_rows,omitempty"`
	Drift   float64 `json:"drift,omitempty"`
}

// NodeDrift is one plan node's estimated-vs-actual cardinality.
type NodeDrift struct {
	Node   string  `json:"node"`
	Est    float64 `json:"est"`
	Actual int64   `json:"actual"`
	// Ratio is max(actual/est, est/actual), floored at 1: symmetric
	// multiplicative error, so a 10x over- and a 10x under-estimate read
	// the same. Estimates below one tuple are clamped to 1 before the
	// division (a "0.3 rows" estimate that produced 1 row is not a 3x
	// miss).
	Ratio float64 `json:"ratio"`
}

// ShardUsage attributes one shard's contribution to a routed query:
// rows fetched from it and whether the threshold merge pruned it
// (proved its tail irrelevant without fetching further).
type ShardUsage struct {
	Shard       int   `json:"shard"`
	RowsFetched int64 `json:"rows_fetched"`
	Pruned      bool  `json:"pruned"`
}

// QueryRecord is one sampled execution's resource accounting. Records
// are immutable once handed to Ring.Record.
type QueryRecord struct {
	Template string    `json:"template"`
	TraceID  string    `json:"trace_id,omitempty"`
	When     time.Time `json:"when"`

	DurationMS   float64 `json:"duration_ms"`
	RowsReturned int     `json:"rows_returned"`
	// DepthK is the execution's depth of enumeration: the deepest
	// per-leaf pull from a base table (the quantity rank-aware operators
	// keep proportional to k).
	DepthK             int64 `json:"depth_k"`
	TuplesScanned      int64 `json:"tuples_scanned"`
	TuplesMaterialized int64 `json:"tuples_materialized"`
	PeakBuffered       int64 `json:"peak_buffered"`
	// CursorPinnedBytes is the memory pinned by the query's suspended
	// cursor state at record time (0 for one-shot queries).
	CursorPinnedBytes int64 `json:"cursor_pinned_bytes,omitempty"`

	Operators []OpUsage    `json:"operators,omitempty"`
	Drift     []NodeDrift  `json:"drift,omitempty"`
	Shards    []ShardUsage `json:"shards,omitempty"`

	// MaxDriftRatio is the worst NodeDrift.Ratio (0 when the record
	// carries no estimates). Filled by Ring.Record if unset.
	MaxDriftRatio float64 `json:"max_drift_ratio,omitempty"`
}

// DriftRatio returns the symmetric multiplicative error between an
// estimated and an actual cardinality (>= 1; see NodeDrift.Ratio).
func DriftRatio(est float64, actual int64) float64 {
	e := est
	if e < 1 {
		e = 1
	}
	a := float64(actual)
	if a < 1 {
		a = 1
	}
	if a > e {
		return a / e
	}
	return e / a
}

// Ring is the lock-cheap record buffer: a fixed slot array written with
// one atomic counter increment plus one atomic pointer store. Slots are
// overwritten oldest-first once the ring wraps; readers snapshot
// whatever mix of generations the slots hold (per-record consistency,
// not cross-record — exactly what a rolling profile needs).
type Ring struct {
	slots []atomic.Pointer[QueryRecord]
	head  atomic.Uint64 // total records ever pushed

	withEstimates atomic.Uint64
	highDrift     atomic.Uint64
}

// NewRing builds a ring with the given capacity (DefaultRingSize when
// n <= 0).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Ring{slots: make([]atomic.Pointer[QueryRecord], n)}
}

// Record pushes one record, computing its MaxDriftRatio and bumping the
// drift counters. The record must not be mutated afterwards.
func (r *Ring) Record(rec *QueryRecord) {
	if rec == nil {
		return
	}
	if rec.MaxDriftRatio == 0 {
		for _, d := range rec.Drift {
			if d.Ratio > rec.MaxDriftRatio {
				rec.MaxDriftRatio = d.Ratio
			}
		}
	}
	if len(rec.Drift) > 0 {
		r.withEstimates.Add(1)
		if rec.MaxDriftRatio >= HighDriftRatio {
			r.highDrift.Add(1)
		}
	}
	idx := (r.head.Add(1) - 1) % uint64(len(r.slots))
	r.slots[idx].Store(rec)
}

// Depth returns the number of live records in the ring.
func (r *Ring) Depth() int {
	n := r.head.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Capacity returns the ring's slot count.
func (r *Ring) Capacity() int { return len(r.slots) }

// Observed returns the total records ever pushed (including ones the
// ring has since overwritten).
func (r *Ring) Observed() uint64 { return r.head.Load() }

// WithEstimates returns how many recorded executions carried plan
// estimates (the drift-measurable population).
func (r *Ring) WithEstimates() uint64 { return r.withEstimates.Load() }

// HighDrift returns how many recorded executions had some plan node
// miss its estimate by at least HighDriftRatio.
func (r *Ring) HighDrift() uint64 { return r.highDrift.Load() }

// Stats is the query-insight block of the daemons' /stats payloads: ring
// occupancy and the lifetime drift counters (the full rolling profiles
// live at /insight/workload and /insight/templates).
type Stats struct {
	RingDepth            int    `json:"ring_depth"`
	RingCapacity         int    `json:"ring_capacity"`
	Records              uint64 `json:"records"`
	RecordsWithEstimates uint64 `json:"records_with_estimates"`
	HighDriftRecords     uint64 `json:"high_drift_records"`
}

// Stats reads the ring's occupancy and counters.
func (r *Ring) Stats() Stats {
	return Stats{
		RingDepth:            r.Depth(),
		RingCapacity:         r.Capacity(),
		Records:              r.Observed(),
		RecordsWithEstimates: r.WithEstimates(),
		HighDriftRecords:     r.HighDrift(),
	}
}

// Snapshot returns the live records, oldest slot first. Records are
// shared, not copied — they are immutable by contract.
func (r *Ring) Snapshot() []*QueryRecord {
	out := make([]*QueryRecord, 0, len(r.slots))
	for i := range r.slots {
		if rec := r.slots[i].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}
