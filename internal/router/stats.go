package router

import (
	"fmt"
	"time"

	"ranksql/internal/obs"
	"ranksql/internal/obs/insight"
	"ranksql/internal/wire"
)

// metrics is the router's accounting: the series it shares with ranksqld
// (obs.Metrics, which also backs /metrics, /insight/* and every error
// answer) plus the counters only a coordinator has — threshold-merge
// effectiveness, replica reliability and the result cache.
type metrics struct {
	*obs.Metrics[TemplateStats, *TemplateStats]
	loads *obs.Counter

	// Threshold-merge effectiveness counters.
	queriesWithPruned *obs.Counter
	shardsPruned      *obs.Counter
	refills           *obs.Counter
	rowsFetched       *obs.Counter

	// Reliability counters: replica failovers, hedged reads, and
	// shard cursor re-opens (see client.go and cursor.go).
	failovers     *obs.Counter
	hedgesIssued  *obs.Counter
	hedgesWon     *obs.Counter
	hedgesLost    *obs.Counter
	cursorResumes *obs.Counter

	// Router-side ranked-result cache traffic (entry/staleness detail
	// lives in the cache itself; see resultcache.go).
	resultCacheHits   *obs.Counter
	resultCacheMisses *obs.Counter
}

// TemplateStats is one per-template row of the router /stats payload.
type TemplateStats struct {
	obs.TemplateRow
	RowsReturned uint64 `json:"rows_returned"`
	RowsFetched  uint64 `json:"rows_fetched_from_shards"`
	ShardsPruned uint64 `json:"shards_pruned"`
	Refills      uint64 `json:"refills"`
}

func newMetrics() *metrics {
	m := &metrics{Metrics: obs.NewMetrics[TemplateStats]("ranksql_router")}
	reg := m.Reg
	m.loads = reg.Counter("ranksql_router_loads_total", "CSV loads partitioned across shards.")
	m.queriesWithPruned = reg.Counter("ranksql_router_queries_with_pruned_shards_total",
		"Queries where the threshold bound let the merge skip draining at least one shard.")
	m.shardsPruned = reg.Counter("ranksql_router_shards_pruned_total",
		"Shard streams skipped entirely by the threshold bound.")
	m.refills = reg.Counter("ranksql_router_refills_total",
		"Follow-up shard fetches past each stream's first: a cursor stream pulls the next rows (re-opening a lost shard cursor), a one-shot stream re-runs at double depth.")
	m.rowsFetched = reg.Counter("ranksql_router_rows_fetched_total",
		"Rows fetched from shards.")
	m.failovers = reg.Counter("ranksql_router_shard_failovers_total",
		"Shard calls retried on another replica after a retryable failure.")
	m.hedgesIssued = reg.Counter("ranksql_router_hedges_issued_total",
		"Hedged reads issued to a second replica after the preferred one stalled.")
	m.hedgesWon = reg.Counter("ranksql_router_hedges_won_total",
		"Hedged reads where the hedge replica answered first.")
	m.hedgesLost = reg.Counter("ranksql_router_hedges_lost_total",
		"Hedged reads where the preferred replica still answered first.")
	m.cursorResumes = reg.Counter("ranksql_router_cursor_replica_resumes_total",
		"Shard cursors re-opened, on any replica, after the pinned one failed or lost the cursor; the new prefix must extend the merged one.")
	m.resultCacheHits = reg.Counter("ranksql_router_result_cache_hits_total",
		"Merged queries served from the router-side ranked-result cache with zero shard fan-out.")
	m.resultCacheMisses = reg.Counter("ranksql_router_result_cache_misses_total",
		"Cacheable merged queries that had to fan out to the shards.")
	return m
}

// recordPage accounts one answered page of a merged stream — fanned out
// to the shards or served from the result cache — and logs it as what
// with attrs: the shared series and the insight ring (obs.Metrics.Served;
// the router records every page, not a sample — building the record is a
// per-shard scalar fold, not an operator-tree walk), the merge counters
// and the template's row. fetched counts the rows this page pulled from
// the shards.
func (m *metrics) recordPage(what string, d time.Duration, rec *insight.QueryRecord, fetched, pruned, refills int, attrs []any) {
	m.Served(what, d, rec.RowsReturned, rec.TuplesScanned, rec.TuplesMaterialized, rec, attrs)
	if pruned > 0 {
		m.queriesWithPruned.Inc()
	}
	m.shardsPruned.Add(uint64(pruned))
	m.refills.Add(uint64(refills))
	m.rowsFetched.Add(uint64(fetched))

	m.Mu.Lock()
	defer m.Mu.Unlock()
	t := m.Templates.Row(rec.Template)
	t.Observe(d)
	t.RowsReturned += uint64(rec.RowsReturned)
	t.RowsFetched += uint64(fetched)
	t.ShardsPruned += uint64(pruned)
	t.Refills += uint64(refills)
}

// shardView is the slice of per-stream state the insight record needs.
type shardView struct {
	rowsFetched int
	depthK      int64
	driftRatio  float64
}

// buildInsightRecord condenses one merged page into a QueryRecord with
// per-shard attribution: rows fetched from each shard, which shards the
// threshold bound pruned, and — when a shard's engine profiled its
// execution — that shard's depth of enumeration and estimate drift.
// The record's DepthK is the deepest shard enumeration the merge drove;
// when no shard reported one, the deepest fetched prefix stands in. A
// result-cache hit has no views: no shard was asked.
func buildInsightRecord(norm, traceID string, elapsed time.Duration, stats wire.QueryStats,
	returned int, views []shardView, pruned []int) *insight.QueryRecord {
	rec := &insight.QueryRecord{
		Template:           norm,
		TraceID:            traceID,
		When:               time.Now(),
		DurationMS:         float64(elapsed) / float64(time.Millisecond),
		RowsReturned:       returned,
		TuplesScanned:      stats.TuplesScanned,
		TuplesMaterialized: stats.Materialized,
		PeakBuffered:       stats.PeakBuffered,
	}
	prunedSet := map[int]bool{}
	for _, p := range pruned {
		prunedSet[p] = true
	}
	var deepestPrefix int64
	for i, v := range views {
		rec.Shards = append(rec.Shards, insight.ShardUsage{
			Shard:       i,
			RowsFetched: int64(v.rowsFetched),
			Pruned:      prunedSet[i],
		})
		deepestPrefix = max(deepestPrefix, int64(v.rowsFetched))
		rec.DepthK = max(rec.DepthK, v.depthK)
		if v.driftRatio > 0 {
			rec.Drift = append(rec.Drift, insight.NodeDrift{
				Node:  fmt.Sprintf("shard%d", i),
				Ratio: v.driftRatio,
			})
		}
	}
	if rec.DepthK == 0 {
		rec.DepthK = deepestPrefix
	}
	return rec
}

// ShardStatus describes one shard (a replica set) in the /stats
// payload. Healthy is true while any replica answers; Base names the
// currently-preferred replica.
type ShardStatus struct {
	ID       int             `json:"id"`
	Base     string          `json:"base_url"`
	Healthy  bool            `json:"healthy"`
	Replicas []ReplicaStatus `json:"replicas,omitempty"`
}

// ReplicaStatus describes one replica of a shard. Requests counts
// protocol calls the router sent it (queries, execs, loads — not
// health probes), so tests can assert a result-cache hit issued zero
// shard traffic.
type ReplicaStatus struct {
	Index    int    `json:"index"`
	Base     string `json:"base_url"`
	Healthy  bool   `json:"healthy"`
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
}

// ReliabilitySnapshot is the failover/hedging block of the /stats
// payload.
type ReliabilitySnapshot struct {
	Failovers            uint64 `json:"failovers"`
	HedgesIssued         uint64 `json:"hedges_issued"`
	HedgesWon            uint64 `json:"hedges_won"`
	HedgesLost           uint64 `json:"hedges_lost"`
	CursorReplicaResumes uint64 `json:"cursor_replica_resumes"`
}

// Snapshot is the router's /stats payload.
type Snapshot struct {
	obs.Totals
	Shards int    `json:"shards"`
	Loads  uint64 `json:"loads"`

	// Threshold-merge effectiveness: how often the per-shard bound let
	// the router skip draining shards, and how much it over-fetched.
	QueriesWithPrunedShards uint64 `json:"queries_with_pruned_shards"`
	ShardsPrunedTotal       uint64 `json:"shards_pruned_total"`
	RefillsTotal            uint64 `json:"refills_total"`
	RowsFetchedTotal        uint64 `json:"rows_fetched_total"`
	RowsReturnedTotal       uint64 `json:"rows_returned_total"`
	// FetchAmplification is rows fetched from shards per row returned
	// (1.0 would be a perfect oracle; lower overfetch is better).
	FetchAmplification float64 `json:"fetch_amplification"`

	// Cluster-wide tuple traffic, summed over shard-reported stats.
	TuplesScannedTotal      uint64 `json:"tuples_scanned_total"`
	TuplesMaterializedTotal uint64 `json:"tuples_materialized_total"`

	// Cursors summarizes the router's resumable ranked cursors.
	Cursors CursorSnapshot `json:"cursors"`

	// Reliability summarizes replica failovers and hedged reads;
	// ResultCache the router-side ranked-result cache (nil when the
	// cache is disabled).
	Reliability ReliabilitySnapshot `json:"reliability"`
	ResultCache *ResultCacheStats   `json:"result_cache,omitempty"`

	PerQuery    []TemplateStats `json:"per_query"`
	ShardHealth []ShardStatus   `json:"shard_health"`
}

// CursorSnapshot is the ranked-cursor block of the /stats payload.
type CursorSnapshot struct {
	Open    int    `json:"open"`
	Opened  uint64 `json:"opened_total"`
	Expired uint64 `json:"expired_total"`
	Hits    uint64 `json:"hits_total"`
	Misses  uint64 `json:"misses_total"`
}

func (m *metrics) snapshot() Snapshot {
	snap := Snapshot{
		Totals:                  m.Totals(),
		Loads:                   m.loads.Value(),
		QueriesWithPrunedShards: m.queriesWithPruned.Value(),
		ShardsPrunedTotal:       m.shardsPruned.Value(),
		RefillsTotal:            m.refills.Value(),
		RowsFetchedTotal:        m.rowsFetched.Value(),
		RowsReturnedTotal:       m.RowsReturned.Value(),
		TuplesScannedTotal:      m.Scanned.Value(),
		TuplesMaterializedTotal: m.Materialized.Value(),
		Cursors: CursorSnapshot{
			Opened: m.CursorsOpened.Value(),
			Hits:   m.CursorHits.Value(),
			Misses: m.CursorMisses.Value(),
		},
		Reliability: ReliabilitySnapshot{
			Failovers:            m.failovers.Value(),
			HedgesIssued:         m.hedgesIssued.Value(),
			HedgesWon:            m.hedgesWon.Value(),
			HedgesLost:           m.hedgesLost.Value(),
			CursorReplicaResumes: m.cursorResumes.Value(),
		},
	}
	if snap.RowsReturnedTotal > 0 {
		snap.FetchAmplification = float64(snap.RowsFetchedTotal) / float64(snap.RowsReturnedTotal)
	}
	m.Mu.Lock()
	defer m.Mu.Unlock()
	snap.PerQuery = m.Templates.Snapshot()
	return snap
}
