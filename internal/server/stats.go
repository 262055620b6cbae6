package server

import (
	"sync/atomic"
	"time"

	"ranksql"
	"ranksql/internal/obs"
	"ranksql/internal/obs/insight"
)

// qpsWindow tracks request counts in per-second buckets over the last
// windowSeconds seconds, for a recent-QPS figure that reacts to load
// changes (unlike a since-start average).
const windowSeconds = 30

// metrics is the daemon's accounting: the series it shares with the
// router (obs.Metrics, which also backs /metrics, /insight/* and every
// error answer) plus what only the server keeps — the QPS window and the
// per-template operator profiles under the shared mutex, and the pinned
// cursor high-water mark.
type metrics struct {
	*obs.Metrics[TemplateStats, *TemplateStats]

	// pinnedMax is the high-water mark of bytes pinned by any single
	// suspended cursor, observed at page-fetch time.
	pinnedMax atomic.Int64

	buckets   [windowSeconds]uint64
	bucketSec [windowSeconds]int64
}

// opAggregate accumulates sampled operator profiles for one node of a
// template's plan, identified positionally (pre-order index) so repeated
// profiled executions of the same plan line up node by node.
type opAggregate struct {
	depth   int
	name    string
	samples uint64
	rows    int64
	depthK  int64
	timeMS  float64
}

// OperatorStats is one plan node of a template's aggregated runtime
// profile in the /stats payload. Averages are per profiled execution.
type OperatorStats struct {
	Depth     int     `json:"depth"`
	Op        string  `json:"op"`
	Samples   uint64  `json:"samples"`
	AvgRows   float64 `json:"avg_rows"`
	AvgDepthK float64 `json:"avg_depth_k"`
	AvgTimeMS float64 `json:"avg_time_ms"`
}

// TemplateStats is one per-template row of the /stats payload.
type TemplateStats struct {
	obs.TemplateRow
	CacheHits uint64  `json:"cache_hits"`
	Rows      uint64  `json:"rows_total"`
	MaxDepthK int     `json:"max_depth_k"`
	AvgDepthK float64 `json:"avg_depth_k"`
	Scanned   uint64  `json:"tuples_scanned_total"`
	// Operators is the template's sampled per-operator runtime profile
	// (engine profiling samples every N-th execution; see EXPLAIN ANALYZE).
	Operators []OperatorStats `json:"operators,omitempty"`

	ops []opAggregate
}

func newMetrics() *metrics {
	m := &metrics{Metrics: obs.NewMetrics[TemplateStats]("ranksqld")}
	m.Reg.GaugeFunc("ranksqld_cursor_pinned_bytes_max",
		"High-water mark of bytes pinned by a single suspended cursor.",
		func() float64 { return float64(m.pinnedMax.Load()) })
	return m
}

// observePinned folds one cursor's pinned-bytes reading into the
// high-water mark.
func (m *metrics) observePinned(b int64) {
	for {
		cur := m.pinnedMax.Load()
		if b <= cur || m.pinnedMax.CompareAndSwap(cur, b) {
			return
		}
	}
}

// tickLocked registers one request into the QPS window.
func (m *metrics) tickLocked(now time.Time) {
	sec := now.Unix()
	i := int(sec % windowSeconds)
	if m.bucketSec[i] != sec {
		m.bucketSec[i] = sec
		m.buckets[i] = 0
	}
	m.buckets[i]++
}

// recordPage accounts one answered page of a ranked stream — a one-shot
// or a cursor page — and logs it as what with attrs: the shared series
// (obs.Metrics.Served), the QPS window, the template's row and, when the
// engine profiled this execution, its insight record, which it returns
// (nil otherwise) and which also feeds the template's per-operator
// profile. pinned is the bytes held by the query's suspended cursor state
// (0 for one-shot queries).
func (m *metrics) recordPage(what, norm, traceID string, d time.Duration, rows *ranksql.Rows, pinned int64, attrs []any) *insight.QueryRecord {
	var rec *insight.QueryRecord
	if rows.Profiled {
		rec = newRecord(norm, traceID, d, rows, pinned)
	}
	m.Served(what, d, rows.Len(), rows.Stats.TuplesScanned, rows.Stats.Materialized, rec, attrs)
	if pinned > 0 {
		m.observePinned(pinned)
	}

	m.Mu.Lock()
	defer m.Mu.Unlock()
	m.tickLocked(time.Now())
	t := m.Templates.Row(norm)
	t.Observe(d)
	if rows.CacheHit {
		t.CacheHits++
	}
	depthK := rows.Len()
	t.Rows += uint64(depthK)
	if depthK > t.MaxDepthK {
		t.MaxDepthK = depthK
	}
	t.Scanned += uint64(rows.Stats.TuplesScanned)
	if rec != nil {
		t.mergeProfileLocked(rec.Operators)
	}
	return rec
}

// newRecord condenses one profiled execution into its insight record in
// a single walk over the operator tree: per-operator usage with each
// node's estimate and drift, the drift list and its worst ratio, and the
// depth of enumeration — the deepest per-leaf pull from a base table (in
// a pre-order list a node is a leaf exactly when the next node is not
// deeper). The page's depth_k and max_drift_ratio, and a slow page's plan
// snapshot, are read from it.
func newRecord(norm, traceID string, d time.Duration, rows *ranksql.Rows, pinned int64) *insight.QueryRecord {
	ops := rows.Operators()
	rec := &insight.QueryRecord{
		Template:           norm,
		TraceID:            traceID,
		When:               time.Now(),
		DurationMS:         float64(d) / float64(time.Millisecond),
		RowsReturned:       rows.Len(),
		TuplesScanned:      rows.Stats.TuplesScanned,
		TuplesMaterialized: rows.Stats.Materialized,
		PeakBuffered:       rows.Stats.PeakBuffered,
		CursorPinnedBytes:  pinned,
		Operators:          make([]insight.OpUsage, len(ops)),
	}
	for i, o := range ops {
		u := insight.OpUsage{Depth: o.Depth, Name: o.Name, Rows: o.Rows, DepthK: o.DepthK, TimeMS: o.TimeMS}
		if leaf := i+1 >= len(ops) || ops[i+1].Depth <= o.Depth; leaf && o.DepthK > rec.DepthK {
			rec.DepthK = o.DepthK
		}
		if o.EstRows >= 0 {
			u.EstRows, u.Drift = o.EstRows, insight.DriftRatio(o.EstRows, o.Rows)
			rec.Drift = append(rec.Drift, insight.NodeDrift{Node: o.Name, Est: o.EstRows, Actual: o.Rows, Ratio: u.Drift})
			rec.MaxDriftRatio = max(rec.MaxDriftRatio, u.Drift)
		}
		rec.Operators[i] = u
	}
	return rec
}

// mergeProfileLocked folds one profiled execution's operator tree into
// the template aggregate. A shape change (node count or operator name)
// means the plan was recompiled differently — the old profile no longer
// describes the running plan, so it restarts.
func (t *TemplateStats) mergeProfileLocked(ops []insight.OpUsage) {
	if len(ops) == 0 {
		return
	}
	same := len(t.ops) == len(ops)
	for i := 0; same && i < len(ops); i++ {
		same = t.ops[i].name == ops[i].Name && t.ops[i].depth == ops[i].Depth
	}
	if !same {
		t.ops = make([]opAggregate, len(ops))
		for i, o := range ops {
			t.ops[i] = opAggregate{depth: o.Depth, name: o.Name}
		}
	}
	for i, o := range ops {
		a := &t.ops[i]
		a.samples++
		a.rows += o.Rows
		a.depthK += o.DepthK
		a.timeMS += o.TimeMS
	}
}

// recordExec aggregates one DDL/DML execution or CSV load.
func (m *metrics) recordExec() {
	m.Execs.Inc()
	m.Mu.Lock()
	defer m.Mu.Unlock()
	m.tickLocked(time.Now())
}

// ResourceSnapshot is the resource-accounting block of the /stats
// payload: cumulative tuple traffic plus the memory currently pinned by
// suspended cursors.
type ResourceSnapshot struct {
	RowsReturned       uint64 `json:"rows_returned"`
	TuplesScanned      uint64 `json:"tuples_scanned"`
	TuplesMaterialized uint64 `json:"tuples_materialized"`
	// CursorPinnedBytes is the bytes pinned by all currently open
	// cursors; CursorPinnedBytesMax the largest single-cursor footprint
	// observed.
	CursorPinnedBytes    int64 `json:"cursor_pinned_bytes"`
	CursorPinnedBytesMax int64 `json:"cursor_pinned_bytes_max"`
}

// Snapshot is the /stats payload (server side; cache counters are merged
// in by the handler).
type Snapshot struct {
	obs.Totals
	// QPS is the recent rate over the sliding window; QPSTotal the
	// since-start average.
	QPS             float64          `json:"qps"`
	QPSTotal        float64          `json:"qps_total"`
	Sessions        int              `json:"sessions"`
	SessionsExpired uint64           `json:"sessions_expired"`
	Cursors         CursorSnapshot   `json:"cursors"`
	Resources       ResourceSnapshot `json:"resources"`
	PerQuery        []TemplateStats  `json:"per_query"`
	PlanCache       CacheSnapshot    `json:"plan_cache"`
	TablesServed    []string         `json:"tables"`
}

// CursorSnapshot is the ranked-cursor block of the /stats payload.
type CursorSnapshot struct {
	// Open counts live cursors (each pins a suspended operator tree).
	Open int `json:"open"`
	// Opened counts cursors ever opened; Expired those the TTL GC
	// collected.
	Opened  uint64 `json:"opened"`
	Expired uint64 `json:"expired"`
	// Hits/Misses count /cursor/next pulls that found a live cursor
	// versus ones naming an unknown or expired cursor.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// CacheSnapshot mirrors the plan cache counters in the /stats payload.
type CacheSnapshot struct {
	Hits            uint64  `json:"hits"`
	Misses          uint64  `json:"misses"`
	Evictions       uint64  `json:"evictions"`
	StaleRecompiles uint64  `json:"stale_recompiles"`
	Entries         int     `json:"entries"`
	Capacity        int     `json:"capacity"`
	HitRate         float64 `json:"hit_rate"`
}

// snapshot renders the metrics; the caller fills in cache/session/table
// fields.
func (m *metrics) snapshot() Snapshot {
	snap := Snapshot{
		Totals: m.Totals(),
		Resources: ResourceSnapshot{
			RowsReturned:         m.RowsReturned.Value(),
			TuplesScanned:        m.Scanned.Value(),
			TuplesMaterialized:   m.Materialized.Value(),
			CursorPinnedBytesMax: m.pinnedMax.Load(),
		},
		Cursors: CursorSnapshot{
			Opened: m.CursorsOpened.Value(),
			Hits:   m.CursorHits.Value(),
			Misses: m.CursorMisses.Value(),
		},
	}
	if snap.UptimeSeconds > 0 {
		snap.QPSTotal = float64(snap.Queries+snap.Execs) / snap.UptimeSeconds
	}

	m.Mu.Lock()
	defer m.Mu.Unlock()
	// Sum complete buckets in the window (excluding the current second,
	// which is still filling). The denominator is the seconds the window
	// actually spans — idle seconds count — so a one-second burst reads
	// as its average over the window, not its peak rate.
	var recent uint64
	nowSec := time.Now().Unix()
	for i := 0; i < windowSeconds; i++ {
		if m.bucketSec[i] != 0 && m.bucketSec[i] != nowSec && nowSec-m.bucketSec[i] <= windowSeconds {
			recent += m.buckets[i]
		}
	}
	if secs := min(int(snap.UptimeSeconds), windowSeconds); secs > 0 {
		snap.QPS = float64(recent) / float64(secs)
	} else if i := int(nowSec % windowSeconds); m.bucketSec[i] == nowSec {
		// The server has only been busy within the current second; report
		// its partial bucket rather than 0.
		snap.QPS = float64(m.buckets[i])
	}
	snap.PerQuery = m.Templates.Snapshot()
	for i := range snap.PerQuery {
		row := &snap.PerQuery[i]
		if row.Count > 0 {
			row.AvgDepthK = float64(row.Rows) / float64(row.Count)
		}
		for _, a := range row.ops {
			if a.samples == 0 {
				continue
			}
			n := float64(a.samples)
			row.Operators = append(row.Operators, OperatorStats{
				Depth: a.depth, Op: a.name, Samples: a.samples,
				AvgRows:   float64(a.rows) / n,
				AvgDepthK: float64(a.depthK) / n,
				AvgTimeMS: a.timeMS / n,
			})
		}
	}
	return snap
}
