package router

import (
	"fmt"
	"net/http"
	"time"

	"ranksql/internal/obs/insight"
	"ranksql/internal/wire"
)

// shardView is the slice of per-stream state the insight record needs.
type shardView struct {
	rowsFetched int
	depthK      int64
	driftRatio  float64
}

// buildInsightRecord condenses one merged query into a QueryRecord with
// per-shard attribution: rows fetched from each shard, which shards the
// threshold bound pruned, and — when a shard's engine profiled its
// execution — that shard's depth of enumeration and estimate drift.
// The record's DepthK is the deepest shard enumeration the merge drove;
// when no shard reported one, the deepest fetched prefix stands in.
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
		if int64(v.rowsFetched) > deepestPrefix {
			deepestPrefix = int64(v.rowsFetched)
		}
		if v.depthK > rec.DepthK {
			rec.DepthK = v.depthK
		}
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

// recordInsight pushes one merged query's record into the router's
// insight ring and advances the cluster-wide tuple-traffic counters.
// Unlike the shard daemons the router records every query, not a
// sample: building the record is a per-shard scalar fold, not an
// operator-tree walk.
func (m *metrics) recordInsight(rec *insight.QueryRecord) {
	m.scanned.Add(uint64(rec.TuplesScanned))
	m.materialized.Add(uint64(rec.TuplesMaterialized))
	m.insight.Record(rec)
}

// handleInsightWorkload serves GET /insight/workload: the rolling
// summary of the recorded query window, cluster-wide.
func (r *Router) handleInsightWorkload(w http.ResponseWriter, hr *http.Request) {
	if hr.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	workload, _ := insight.Aggregate(r.metrics.insight)
	wire.WriteJSON(w, http.StatusOK, workload)
}

// handleInsightTemplates serves GET /insight/templates: per-template
// profiles with depth-k distribution, p95 footprint, shard-attributed
// fetch volume and pruning, and shard-reported estimate drift.
func (r *Router) handleInsightTemplates(w http.ResponseWriter, hr *http.Request) {
	if hr.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	_, templates := insight.Aggregate(r.metrics.insight)
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"templates": templates})
}
