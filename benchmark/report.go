package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a unit test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: worsening that counts as a regression
}

// endToEnd are the metrics a user of the query service sees. Every
// workload reports every one of them, none of them can be zero.
// heavy_p50_ms is the workload's expensive op class: cursor open on
// serve_topk and router_topk, INSERT on serve_mixed, the first execution
// of a never-seen template on embed_join.
//
// A bound covers every workload, so the noisiest one sets it: over two
// sets of ten runs of the same code on the reference machine the widest
// interquartile spreads were 12 % (throughput), 15 % (p50), 17 % (tail),
// 10 % (heavy; 14 % in a third set), 12 % (CPU) and 14 % (RSS; 18 % in a
// third set), all on embed_join, against 4–9 % on the HTTP workloads;
// README.md has the table. Each bound leaves about half as much again.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.20},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_tail_ms", "ms", "lower", 0.25},
	{"heavy_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, the module
// name as prefix. A layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// Counters, from /stats deltas (Rows.Stats on embed_join) across an
	// untraced window.
	{Name: "exec.tuples_scanned_per_op", Unit: "count", Better: "lower"},
	{Name: "exec.tuples_materialized_per_op", Unit: "count", Better: "lower"},
	{Name: "exec.tuples_per_row_returned", Unit: "count", Better: "lower"},
	{Name: "engine.plan_cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "engine.stale_recompiles", Unit: "count", Better: "lower"},
	{Name: "server.cursor_hit_share", Unit: "share", Better: "higher"},
	{Name: "server.errors", Unit: "count", Better: "lower"},
	{Name: "router.shard_fetches_per_op", Unit: "count", Better: "lower"},
	{Name: "router.refills_per_op", Unit: "count", Better: "lower"},
	{Name: "router.fetch_amplification", Unit: "ratio", Better: "lower"},
	{Name: "router.pruned_share", Unit: "share", Better: "higher"},
	{Name: "router.result_cache_hit_share", Unit: "share", Better: "higher"},
	// Timings, medians over the traced run's ops.
	{Name: "server.transport_us", Unit: "us", Better: "lower"},
	{Name: "server.handle_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "jsonenc.encode_us", Unit: "us", Better: "lower"},
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.normalize_us", Unit: "us", Better: "lower"},
	{Name: "sql.allocs_per_parse", Unit: "count", Better: "lower"},
	{Name: "engine.prepare_us", Unit: "us", Better: "lower"},
	{Name: "engine.query_us", Unit: "us", Better: "lower"},
	{Name: "engine.rebind_us", Unit: "us", Better: "lower"},
	{Name: "engine.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.cursor_open_us", Unit: "us", Better: "lower"},
	{Name: "engine.cursor_fetch_us", Unit: "us", Better: "lower"},
	{Name: "exec.tree_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.explain_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.insert_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.read_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "btree.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.bulk_build_ms", Unit: "ms", Better: "lower"},
	{Name: "router.handle_us", Unit: "us", Better: "lower"},
	{Name: "router.self_us", Unit: "us", Better: "lower"},
	{Name: "router.shard_span_us", Unit: "us", Better: "lower"},
	{Name: "router.fanout_skew_us", Unit: "us", Better: "lower"},
	{Name: "router.merge_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// metric is one measured value on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. The four contract keys are what the
// result line carries; the rest goes to the -out report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string `json:"-"`
	Seed     int64  `json:"-"`
	Seconds  int    `json:"-"`
	Trace    bool   `json:"-"`
	// Diagnostics are measurements that explain a run but carry no bound:
	// counters of the timed window, per-class latencies, sample counts,
	// tail percentile chosen, and timings too noisy to gate on.
	Diagnostics map[string]float64 `json:"-"`
	FirstError  string             `json:"-"`
}

// runRecord is a result as the -out report stores it.
type runRecord struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedShare float64            `json:"failed_ops_share"`
	FirstError  string             `json:"first_error,omitempty"`
	Metrics     map[string]metric  `json:"metrics"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
}

// summaryRow aggregates one workload × metric over a report's runs.
type summaryRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	N        int       `json:"n"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Values   []float64 `json:"values"`
}

// report is the -out file: every run made, their per-metric medians and
// quartiles, and where they were measured. "claim" is always null: this
// benchmark is the ruler, it claims no gain.
type report struct {
	Claim   *string      `json:"claim"`
	Machine machineInfo  `json:"machine"`
	Runs    []runRecord  `json:"runs"`
	Summary []summaryRow `json:"summary"`
}

func (r *result) record() runRecord {
	return runRecord{
		Workload: r.Workload, Seed: r.Seed, Seconds: r.Seconds, Trace: r.Trace,
		Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		FailedShare: float64(r.Failed) / float64(max(r.Attempted, 1)),
		FirstError:  r.FirstError, Metrics: r.Metrics, Diagnostics: r.Diagnostics,
	}
}

// summarize groups the runs' metrics by workload and name.
func summarize(runs []runRecord) []summaryRow {
	type key struct{ w, m string }
	groups := map[key]*summaryRow{}
	var order []key
	for _, r := range runs {
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			k := key{r.Workload, n}
			g, ok := groups[k]
			if !ok {
				g = &summaryRow{Workload: r.Workload, Metric: n, Unit: r.Metrics[n].Unit}
				groups[k] = g
				order = append(order, k)
			}
			g.Values = append(g.Values, r.Metrics[n].Value)
		}
	}
	out := make([]summaryRow, 0, len(order))
	for _, k := range order {
		g := groups[k]
		g.N = len(g.Values)
		g.Median = median(g.Values)
		g.Q1, g.Q3 = g.Median, g.Median
		if g.N >= 2 {
			g.Q1, g.Q3 = quartiles(g.Values)
		}
		out = append(out, *g)
	}
	return out
}

func writeReport(path string, rep *report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// printMetrics lists a run's metrics by name with their units, in
// catalog order.
func printMetrics(w io.Writer, r *result) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "%s seed=%d trace=%v: attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct)
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", r.FirstError)
	}
}

// compareVerdict is one row of the compare mode.
type compareVerdict struct {
	summaryRow
	Other   summaryRow
	Delta   float64 // B's median relative to A's, signed so that positive is worse
	Bound   float64
	Verdict string // ok, regressed or unresolved
}

// compareReports judges B against A per workload × end-to-end metric:
// "regressed" when B's median is worse than A's by more than the bound,
// "unresolved" when either side's interquartile spread is wider than the
// bound (the runs cannot tell), "ok" otherwise.
func compareReports(a, b *report) []compareVerdict {
	bounds := map[string]metricDef{}
	for _, d := range endToEnd {
		bounds[d.Name] = d
	}
	other := map[[2]string]summaryRow{}
	for _, s := range b.Summary {
		other[[2]string{s.Workload, s.Metric}] = s
	}
	var out []compareVerdict
	for _, s := range a.Summary {
		d, ok := bounds[s.Metric]
		o, ok2 := other[[2]string{s.Workload, s.Metric}]
		if !ok || !ok2 {
			continue
		}
		v := compareVerdict{summaryRow: s, Other: o, Bound: d.Bound}
		v.Delta = (o.Median - s.Median) / s.Median
		if d.Better == "higher" {
			v.Delta = -v.Delta
		}
		spread := max((s.Q3-s.Q1)/s.Median, (o.Q3-o.Q1)/o.Median)
		switch {
		case spread > d.Bound:
			v.Verdict = "unresolved"
		case v.Delta > d.Bound:
			v.Verdict = "regressed"
		default:
			v.Verdict = "ok"
		}
		out = append(out, v)
	}
	return out
}

func printCompare(w io.Writer, rows []compareVerdict) {
	fmt.Fprintf(w, "%-12s %-18s %6s %12s %12s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "unit", "A median", "B median", "worse by", "bound", "A iqr", "B iqr", "verdict")
	for _, v := range rows {
		fmt.Fprintf(w, "%-12s %-18s %6s %12.4f %12.4f %8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
			v.Workload, v.Metric, v.Unit, v.Median, v.Other.Median, 100*v.Delta, 100*v.Bound,
			100*(v.Q3-v.Q1)/v.Median, 100*(v.Other.Q3-v.Other.Q1)/v.Other.Median, v.Verdict)
	}
}
