package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration returns the same counter.
	if again := r.Counter("reqs_total", "requests"); again.Value() != 5 {
		t.Fatalf("re-registered counter lost state: %d", again.Value())
	}
	g := r.Gauge("sessions", "open sessions")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestBucketBounds(t *testing.T) {
	if got := BucketUpperBound(0); got != 1e-6 {
		t.Fatalf("bucket 0 bound = %g, want 1e-6", got)
	}
	if !math.IsInf(BucketUpperBound(NumBuckets), 1) {
		t.Fatalf("overflow bucket bound should be +Inf")
	}
	for i := 1; i < NumBuckets; i++ {
		if BucketUpperBound(i) != 2*BucketUpperBound(i-1) {
			t.Fatalf("bucket %d not doubling", i)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile should be 0")
	}
	// 1000 observations uniform over (0, 100ms]: quantile estimates must
	// land within one log-2 bucket of the exact value.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 100e-3 / 1000)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if mean := h.Mean(); mean < 0.045 || mean > 0.055 {
		t.Fatalf("mean = %g, want ~0.05", mean)
	}
	checks := []struct {
		q, exact float64
	}{{0.50, 0.050}, {0.95, 0.095}, {0.99, 0.099}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.exact/2 || got > c.exact*2 {
			t.Errorf("q%.0f = %g, want within 2x of %g", c.q*100, got, c.exact)
		}
	}
	// Monotonic in q.
	if h.Quantile(0.99) < h.Quantile(0.5) {
		t.Fatalf("quantiles not monotone")
	}
}

func TestHistogramSingleBucketInterpolation(t *testing.T) {
	h := NewHistogram()
	// All mass in one bucket: (2µs, 4µs]. Interpolation stays inside it.
	for i := 0; i < 100; i++ {
		h.Observe(3e-6)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		got := h.Quantile(q)
		if got < 2e-6 || got > 4e-6 {
			t.Fatalf("q=%g escaped bucket: %g", q, got)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram()
	h.Observe(1e9) // way past the finite range
	got := h.Quantile(0.5)
	want := BucketUpperBound(NumBuckets - 1)
	if got != want {
		t.Fatalf("overflow quantile = %g, want floor %g", got, want)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits", "")
	h := r.Histogram("lat_seconds", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.001)
				// Concurrent registration of the same and new names.
				r.Counter("hits", "")
				r.Gauge("g", "").Set(int64(i))
			}
		}()
	}
	// Concurrent scrapes while writers run.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-8.0) > 1e-6 {
		t.Fatalf("histogram sum = %g, want 8.0", sum)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries_total", "Total queries.").Add(3)
	r.Counter(`requests_total{endpoint="query"}`, "Requests by endpoint.").Add(2)
	r.Counter(`requests_total{endpoint="exec"}`, "Requests by endpoint.").Add(1)
	r.Gauge("sessions_open", "Open sessions.").Set(4)
	r.GaugeFunc("uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	h := r.Histogram("query_seconds", "Query latency.")
	h.Observe(0.5e-6) // bucket 0
	h.Observe(3e-6)   // bucket 2

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP queries_total Total queries.",
		"# TYPE queries_total counter",
		"queries_total 3",
		`requests_total{endpoint="query"} 2`,
		`requests_total{endpoint="exec"} 1`,
		"# TYPE sessions_open gauge",
		"sessions_open 4",
		"uptime_seconds 1.5",
		"# TYPE query_seconds histogram",
		`query_seconds_bucket{le="0.000001"} 1`,
		`query_seconds_bucket{le="0.000004"} 2`,
		`query_seconds_bucket{le="+Inf"} 2`,
		"query_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// The labeled family's header must appear exactly once.
	if n := strings.Count(out, "# TYPE requests_total counter"); n != 1 {
		t.Errorf("requests_total TYPE header appears %d times, want 1", n)
	}
	// _sum line present and parseable prefix.
	if !strings.Contains(out, "query_seconds_sum ") {
		t.Errorf("missing query_seconds_sum")
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "x_total 1") {
		t.Fatalf("handler output missing counter: %s", buf[:n])
	}
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace id lengths: %d, %d; want 16", len(a), len(b))
	}
	if a == b {
		t.Fatalf("trace ids collided: %s", a)
	}
	req := httptest.NewRequest("POST", "/query", nil)
	if got := TraceIDFrom(req); len(got) != 16 {
		t.Fatalf("minted id length = %d", len(got))
	}
	req.Header.Set(TraceHeader, "abc123")
	if got := TraceIDFrom(req); got != "abc123" {
		t.Fatalf("propagated id = %q, want abc123", got)
	}
	req.Header.Set(TraceHeader, strings.Repeat("x", 65))
	if got := TraceIDFrom(req); len(got) != 16 {
		t.Fatalf("oversized id should be replaced, got %q", got)
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("abc")
	end := tr.StartSpan("parse")
	time.Sleep(time.Millisecond)
	end()
	tr.AddSpan("merge", time.Now().Add(-2*time.Millisecond), time.Now())
	attrs := tr.SpanAttrs()
	if len(attrs) != 4 {
		t.Fatalf("attrs = %v, want 4 entries", attrs)
	}
	if attrs[0] != "parse" || attrs[2] != "merge" {
		t.Fatalf("span names wrong: %v", attrs)
	}
	if ms, ok := attrs[1].(float64); !ok || ms <= 0 {
		t.Fatalf("parse duration = %v", attrs[1])
	}
}

func TestSummarize(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.ObserveDuration(10 * time.Millisecond)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// 10ms falls in the (8.4ms, 16.8ms] bucket; estimates are in ms and
	// bounded by the bucket edges.
	if s.P50MS < 8 || s.P50MS > 17 {
		t.Fatalf("p50 = %g ms, want within the 10ms bucket", s.P50MS)
	}
	if s.MeanMS < 9.9 || s.MeanMS > 10.1 {
		t.Fatalf("mean = %g ms, want ~10", s.MeanMS)
	}
}

type testRow struct {
	TemplateRow
	Extra int
}

// TestTemplatesBoundAndOrder: the per-template table holds MaxTemplates
// distinct templates, then folds every new one into the overflow row;
// Snapshot fills mean latency and lists the most executed first.
func TestTemplatesBoundAndOrder(t *testing.T) {
	var tt Templates[testRow, *testRow]
	for i := 0; i < MaxTemplates+10; i++ {
		r := tt.Row(strings.Repeat("q", i+1))
		r.Observe(2 * time.Millisecond)
		r.Extra++
	}
	hot := tt.Row("q")
	hot.Observe(4 * time.Millisecond)
	rows := tt.Snapshot()
	if len(rows) != MaxTemplates+1 {
		t.Fatalf("%d rows, want %d plus the overflow row", len(rows), MaxTemplates)
	}
	if rows[0].Query != overflowTemplate || rows[0].Count != 10 || rows[0].Extra != 10 {
		t.Errorf("rows[0] = %+v, want the overflow row holding the 10 late templates", rows[0])
	}
	if rows[1].Query != "q" || rows[1].Count != 2 || rows[1].AvgMS != 3 {
		t.Errorf("rows[1] = %+v, want q: count 2, avg 3 ms", rows[1])
	}
}
