package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"ranksql/internal/obs/insight"
	"ranksql/internal/wire"
)

// Metrics is the accounting layer ranksqld and the sharding router share.
// It registers, under the daemon's metric-name prefix, the series that
// mean the same thing on both tiers — so "queries", "errors" and a
// template's depth-k are counted by one code path wherever they are read
// — and owns the insight ring, the trace logger with its slow-query
// threshold, the per-template table and the one error answer. Each daemon
// embeds it and registers only its own series beside it; T is the
// daemon's per-template row, which embeds TemplateRow.
type Metrics[T any, P templateRow[T]] struct {
	Reg *Registry

	queries  *Counter   // answered query pages: one-shots and cursor pages
	Execs    *Counter   // DDL/DML statements (ranksqld: and CSV loads)
	errors   *Counter   // failed requests, counted by Fail
	Timeouts *Counter   // queries cut off by a deadline_ms budget
	slow     *Counter   // pages at or over the slow-query threshold
	latency  *Histogram // query wall time, seconds

	RowsReturned *Counter // ranked rows answered
	Scanned      *Counter // base-table tuples read (router: summed over shards)
	// Materialized counts tuples admitted into operator buffers (heaps,
	// hash tables, sort runs) — the memory-pressure counterpart of Scanned.
	Materialized *Counter

	CursorsOpened *Counter // ranked cursors opened
	CursorHits    *Counter // /cursor/next pulls that found a live cursor
	CursorMisses  *Counter // /cursor/next pulls naming an unknown or expired cursor

	// insight is the ring of per-query resource records behind /insight/*.
	insight *insight.Ring

	// Tracer receives one record per answered page, at Debug — or at Warn,
	// counted in slow, once the page took SlowQuery or longer (SlowQuery
	// <= 0 disables the slow-query log).
	Tracer    *slog.Logger
	SlowQuery time.Duration

	started time.Time

	// Mu guards Templates and whatever compound state the daemon keeps
	// beside it, so recording a query takes one lock.
	Mu        sync.Mutex
	Templates Templates[T, P]

	prefix string
}

// NewMetrics registers the shared series under prefix ("ranksqld",
// "ranksql_router").
func NewMetrics[T any, P templateRow[T]](prefix string) *Metrics[T, P] {
	reg := NewRegistry()
	name := func(s string) string { return prefix + "_" + s }
	m := &Metrics[T, P]{
		Reg:          reg,
		queries:      reg.Counter(name("queries_total"), "Query pages answered: one-shot answers and cursor pages."),
		Execs:        reg.Counter(name("execs_total"), "DDL/DML statements served (on ranksqld, CSV loads too)."),
		errors:       reg.Counter(name("errors_total"), "Requests that failed."),
		Timeouts:     reg.Counter(name("timeouts_total"), "Queries aborted by a per-request deadline_ms budget."),
		slow:         reg.Counter(name("slow_queries_total"), "Queries slower than the slow-query threshold."),
		latency:      reg.Histogram(name("query_duration_seconds"), "Query wall time."),
		RowsReturned: reg.Counter(name("rows_returned_total"), "Ranked rows returned to clients."),
		Scanned: reg.Counter(name("tuples_scanned_total"),
			"Base-table tuples read by queries (on the router, summed over the shards' reports)."),
		Materialized: reg.Counter(name("tuples_materialized_total"),
			"Tuples admitted into operator buffers (heaps, hash tables, sort runs)."),
		CursorsOpened: reg.Counter(name("cursors_opened_total"), "Ranked cursors opened via /query cursor=true."),
		CursorHits:    reg.Counter(name("cursor_hits_total"), "/cursor/next pulls that found a live cursor."),
		CursorMisses: reg.Counter(name("cursor_misses_total"),
			"/cursor/next pulls naming an unknown or expired cursor."),
		insight: insight.NewRing(0),
		Tracer:  slog.Default(),
		started: time.Now(),
		prefix:  prefix,
	}
	reg.GaugeFunc(name("uptime_seconds"), "Seconds since the daemon started.",
		func() float64 { return time.Since(m.started).Seconds() })
	RegisterBuildInfo(reg, prefix)
	reg.GaugeFunc(name("insight_ring_depth"), "Live records in the query-insight ring.",
		func() float64 { return float64(m.insight.Depth()) })
	reg.GaugeFunc(name("insight_records_total"), "Query pages recorded into the insight ring.",
		func() float64 { return float64(m.insight.Observed()) })
	reg.GaugeFunc(name("insight_records_with_estimates_total"),
		"Recorded queries that carried cardinality-estimate drift figures.",
		func() float64 { return float64(m.insight.WithEstimates()) })
	reg.GaugeFunc(name("insight_high_drift_total"),
		"Recorded queries where some plan node missed its cardinality estimate by >= 4x.",
		func() float64 { return float64(m.insight.HighDrift()) })
	return m
}

// WatchCursors registers the open_cursors and cursors_expired_total
// gauges over the daemon's cursor table.
func (m *Metrics[T, P]) WatchCursors(cursors interface {
	Len() int
	Expired() uint64
}) {
	m.Reg.GaugeFunc(m.prefix+"_open_cursors", "Open ranked cursors (each pins suspended stream state).",
		func() float64 { return float64(cursors.Len()) })
	m.Reg.GaugeFunc(m.prefix+"_cursors_expired_total", "Cursors collected by the idle TTL.",
		func() float64 { return float64(cursors.Expired()) })
}

// Mount serves the shared read endpoints on mux: /metrics and the two
// /insight views.
func (m *Metrics[T, P]) Mount(mux *http.ServeMux) {
	mux.Handle("/metrics", Handler(m.Reg))
	mux.HandleFunc("/insight/workload", m.insight.ServeWorkload)
	mux.HandleFunc("/insight/templates", m.insight.ServeTemplates)
}

// Served accounts one answered query page — a one-shot answer or a cursor
// page — the same way on both daemons: the query, row and tuple counters
// and the latency histogram, the insight ring when the page has a record,
// and the trace log. what ("query", "cursor page") names the log record;
// a slow one also carries the record's operator tree, when it has one, as
// a "plan" JSON attribute (EXPLAIN ANALYZE with est-vs-actual deltas), so
// one line is enough to see whether the optimizer misjudged the query.
func (m *Metrics[T, P]) Served(what string, d time.Duration, rows int, scanned, materialized int64, rec *insight.QueryRecord, attrs []any) {
	m.queries.Inc()
	m.latency.ObserveDuration(d)
	m.RowsReturned.Add(uint64(rows))
	m.Scanned.Add(uint64(scanned))
	m.Materialized.Add(uint64(materialized))
	if rec != nil {
		m.insight.Record(rec)
	}
	if m.SlowQuery <= 0 || d < m.SlowQuery {
		m.Tracer.Debug(what, attrs...)
		return
	}
	m.slow.Inc()
	if rec != nil && len(rec.Operators) > 0 {
		if plan, err := json.Marshal(rec.Operators); err == nil {
			attrs = append(attrs, "plan", string(plan))
		}
	}
	m.Tracer.Warn("slow "+what, attrs...)
}

// Fail answers a failed request with code and msg and counts it once in
// errors_total — and in its template's row when the failed statement's
// template norm is known.
func (m *Metrics[T, P]) Fail(w http.ResponseWriter, code int, norm, msg string) {
	m.errors.Inc()
	if norm != "" {
		m.Mu.Lock()
		m.Templates.Row(norm).row().Errors++
		m.Mu.Unlock()
	}
	wire.WriteError(w, code, msg)
}

// Totals is the block both daemons' /stats payloads open with, read from
// the shared series.
type Totals struct {
	Build         BuildInfo `json:"build"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	Queries       uint64    `json:"queries"`
	Execs         uint64    `json:"execs"`
	Errors        uint64    `json:"errors"`
	Timeouts      uint64    `json:"timeouts"`
	SlowQueries   uint64    `json:"slow_queries"`
	AvgQueryMS    float64   `json:"avg_query_ms"`
	// Latency summarizes the query-latency histogram (the same one
	// /metrics exposes bucket by bucket).
	Latency Summary       `json:"latency"`
	Insight insight.Stats `json:"insight"`
}

// Totals reads the shared series for /stats.
func (m *Metrics[T, P]) Totals() Totals {
	lat := m.latency.Summarize()
	return Totals{
		Build:         Build(),
		UptimeSeconds: time.Since(m.started).Seconds(),
		Queries:       m.queries.Value(),
		Execs:         m.Execs.Value(),
		Errors:        m.errors.Value(),
		Timeouts:      m.Timeouts.Value(),
		SlowQueries:   m.slow.Value(),
		AvgQueryMS:    lat.MeanMS,
		Latency:       lat,
		Insight:       m.insight.Stats(),
	}
}

// MaxTemplates bounds a per-template table: ad-hoc queries with inline
// literals mint a distinct normalized template per literal combination,
// which must not grow a daemon's memory without limit. Past the bound,
// new templates share the overflowTemplate row.
const (
	MaxTemplates     = 512
	overflowTemplate = "(other templates)"
)

// TemplateRow is the part of a per-template /stats row both daemons keep.
type TemplateRow struct {
	Query  string  `json:"query"`
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	AvgMS  float64 `json:"avg_latency_ms"`

	totalMS float64
}

// Observe counts one execution of the template that took d.
func (r *TemplateRow) Observe(d time.Duration) {
	r.Count++
	r.totalMS += float64(d) / float64(time.Millisecond)
}

func (r *TemplateRow) row() *TemplateRow { return r }

// templateRow ties a daemon's row type T to the TemplateRow it embeds.
type templateRow[T any] interface {
	*T
	row() *TemplateRow
}

// Templates is the bounded per-template table. It does no locking: the
// daemon holds Metrics.Mu around every call.
type Templates[T any, P templateRow[T]] struct {
	rows map[string]P
}

// Row finds or creates norm's row, spilling into the overflowTemplate row
// once MaxTemplates distinct templates exist.
func (t *Templates[T, P]) Row(norm string) P {
	if r := t.rows[norm]; r != nil {
		return r
	}
	if t.rows == nil {
		t.rows = map[string]P{}
	}
	if len(t.rows) >= MaxTemplates {
		norm = overflowTemplate
		if r := t.rows[norm]; r != nil {
			return r
		}
	}
	r := P(new(T))
	r.row().Query = norm
	t.rows[norm] = r
	return r
}

// Snapshot copies every row with its mean latency filled in, the most
// executed template first (nil while the table is empty).
func (t *Templates[T, P]) Snapshot() []T {
	var out []T
	for _, r := range t.rows {
		out = append(out, *r)
		if c := P(&out[len(out)-1]).row(); c.Count > 0 {
			c.AvgMS = c.totalMS / float64(c.Count)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return P(&out[i]).row().Count > P(&out[j]).row().Count
	})
	return out
}
