package server

import (
	"encoding/json"
	"net/http"
	"time"

	"ranksql"
	"ranksql/internal/obs/insight"
	"ranksql/internal/wire"
)

// recordInsight condenses one profiled execution into a QueryRecord and
// pushes it into the insight ring. Unprofiled executions never reach
// here, so the unsampled hot path pays nothing beyond the Profiled
// branch in recordQuery.
func (m *metrics) recordInsight(norm, traceID string, d time.Duration, rows *ranksql.Rows, pinned int64) {
	ops := rows.Operators()
	rec := &insight.QueryRecord{
		Template:           norm,
		TraceID:            traceID,
		When:               time.Now(),
		DurationMS:         float64(d) / float64(time.Millisecond),
		RowsReturned:       rows.Len(),
		DepthK:             maxLeafDepthK(ops),
		TuplesScanned:      rows.Stats.TuplesScanned,
		TuplesMaterialized: rows.Stats.Materialized,
		PeakBuffered:       rows.Stats.PeakBuffered,
		CursorPinnedBytes:  pinned,
	}
	for _, o := range ops {
		rec.Operators = append(rec.Operators, insight.OpUsage{
			Depth: o.Depth, Name: o.Name, Rows: o.Rows, DepthK: o.DepthK, TimeMS: o.TimeMS,
		})
		if o.EstRows >= 0 {
			rec.Drift = append(rec.Drift, insight.NodeDrift{
				Node:   o.Name,
				Est:    o.EstRows,
				Actual: o.Rows,
				Ratio:  insight.DriftRatio(o.EstRows, o.Rows),
			})
		}
	}
	m.insight.Record(rec)
}

// maxLeafDepthK is the execution's depth of enumeration: the deepest
// per-leaf pull from a base table. In a pre-order operator list, a node
// is a leaf exactly when the next node is not deeper than it.
func maxLeafDepthK(ops []ranksql.OpProfile) int64 {
	var depthK int64
	for i, o := range ops {
		leaf := i+1 >= len(ops) || ops[i+1].Depth <= o.Depth
		if leaf && o.DepthK > depthK {
			depthK = o.DepthK
		}
	}
	return depthK
}

// maxDriftRatio is the worst est-vs-actual cardinality miss across the
// profiled plan's nodes (0 when no node carried an estimate).
func maxDriftRatio(ops []ranksql.OpProfile) float64 {
	var worst float64
	for _, o := range ops {
		if o.EstRows < 0 {
			continue
		}
		if r := insight.DriftRatio(o.EstRows, o.Rows); r > worst {
			worst = r
		}
	}
	return worst
}

// planNodeJSON is one line of the slow-query log's plan snapshot: the
// executed operator annotated with the optimizer's estimate and the
// resulting drift, EXPLAIN ANALYZE as structured JSON.
type planNodeJSON struct {
	Depth   int     `json:"depth"`
	Op      string  `json:"op"`
	Rows    int64   `json:"rows"`
	DepthK  int64   `json:"depth_k"`
	TimeMS  float64 `json:"time_ms,omitempty"`
	EstRows float64 `json:"est_rows,omitempty"`
	// Drift is actual-vs-estimate as a symmetric ratio (>= 1; omitted
	// when no estimate was aligned for the node).
	Drift float64 `json:"drift,omitempty"`
}

// planSnapshotJSON renders the executed plan with est-vs-actual deltas
// as a JSON array for structured slow-query log records. Empty string
// when the result carries no tree (e.g. EXPLAIN-only responses).
func planSnapshotJSON(rows *ranksql.Rows) string {
	ops := rows.Operators()
	if len(ops) == 0 {
		return ""
	}
	nodes := make([]planNodeJSON, len(ops))
	for i, o := range ops {
		nodes[i] = planNodeJSON{
			Depth: o.Depth, Op: o.Name, Rows: o.Rows, DepthK: o.DepthK, TimeMS: o.TimeMS,
		}
		if o.EstRows >= 0 {
			nodes[i].EstRows = o.EstRows
			nodes[i].Drift = insight.DriftRatio(o.EstRows, o.Rows)
		}
	}
	b, err := json.Marshal(nodes)
	if err != nil {
		return ""
	}
	return string(b)
}

// handleInsightWorkload serves GET /insight/workload: the rolling
// summary of the sampled record window (ring occupancy, window bounds,
// resource totals, drift counters, template frequency shares).
func (s *Server) handleInsightWorkload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	workload, _ := insight.Aggregate(s.metrics.insight)
	wire.WriteJSON(w, http.StatusOK, workload)
}

// handleInsightTemplates serves GET /insight/templates: per-template
// profiles — frequency, depth-k distribution, p95 resource footprint,
// and estimate-drift ratios — most frequent template first.
func (s *Server) handleInsightTemplates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	_, templates := insight.Aggregate(s.metrics.insight)
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"templates": templates})
}
