// Package obs is RankSQL's observability kit: an atomic metrics registry
// with Prometheus text exposition (counters, gauges and log-bucketed
// latency histograms with quantile extraction), trace-ID minting and
// propagation for cross-process request correlation, a lightweight span
// collector for structured per-request timing logs, and Metrics, the one
// accounting layer ranksqld and the sharding router both embed.
//
// The registry is the single source of truth for service counters: the
// daemons' /metrics endpoints render it in Prometheus format and their
// /stats JSON payloads read the same counters, so the two views can never
// disagree.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (int64).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind discriminates registry entries for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered series.
type metric struct {
	name string // full series name, may include {label="value"} pairs
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family strips the label set from a series name: the Prometheus metric
// family HELP/TYPE header is per family, not per series.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Registry holds named metrics. Registration is idempotent per name:
// registering an existing name returns the existing metric, so packages
// can look up shared series without coordinating initialization order.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric // registration order, for stable exposition
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

// register adds m unless the name exists; returns the canonical entry.
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.byName[m.name]; ok {
		return prior
	}
	r.byName[m.name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter registers (or fetches) a counter. The name may carry a constant
// Prometheus label set, e.g. `requests_total{endpoint="query"}`.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(&metric{name: name, help: help, kind: kindCounter, counter: &Counter{}})
	return m.counter
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(&metric{name: name, help: help, kind: kindGauge, gauge: &Gauge{}})
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the bridge for state owned elsewhere (plan-cache counters, session
// tables, shard health).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGaugeFunc, fn: fn})
}

// Histogram registers (or fetches) a log-bucketed histogram (see
// histogram.go). Values are conventionally seconds for latencies.
func (r *Registry) Histogram(name, help string) *Histogram {
	m := r.register(&metric{name: name, help: help, kind: kindHistogram, hist: NewHistogram()})
	return m.hist
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4). Series are emitted in registration order, with
// one HELP/TYPE header per metric family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.ordered...)
	r.mu.Unlock()

	seenFamily := map[string]bool{}
	for _, m := range metrics {
		fam := family(m.name)
		if !seenFamily[fam] {
			seenFamily[fam] = true
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, typeName(m.kind)); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.fn()))
		case kindHistogram:
			err = writeHistogram(w, m.name, m.hist)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func typeName(k metricKind) string {
	switch k {
	case kindHistogram:
		return "histogram"
	case kindCounter:
		return "counter"
	default:
		return "gauge"
	}
}

// formatFloat renders a float the way Prometheus expects (no exponent
// for ordinary magnitudes, +Inf/-Inf/NaN spelled out).
func formatFloat(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	case math.IsNaN(f):
		return "NaN"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", f), "0"), ".")
}

// seriesWithLabel splices an extra label (le="...") into a series name
// that may already carry a label set.
func seriesWithLabel(name, label string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// writeHistogram renders the cumulative bucket series, sum and count.
func writeHistogram(w io.Writer, name string, h *Histogram) error {
	counts, sum, total := h.snapshot()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := formatFloat(BucketUpperBound(i))
		if i == len(counts)-1 {
			le = "+Inf"
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", seriesWithLabel(name+"_bucket", `le="`+le+`"`), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", name+"_sum", formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", name+"_count", total)
	return err
}

// Handler returns an http.Handler serving the registry at /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// SortedNames returns the registered series names sorted, for tests.
func (r *Registry) SortedNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
