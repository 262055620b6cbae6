package obs

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"time"
)

// TraceHeader is the HTTP header carrying a request's trace ID across
// process boundaries (client → router → shard).
const TraceHeader = "X-Ranksql-Trace"

// NewTraceID mints a 16-hex-digit random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively impossible on supported
		// platforms; fall back to a fixed marker rather than panicking
		// in a request path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// TraceIDFrom returns the request's propagated trace ID, minting a fresh
// one when the header is absent (the request entered the system here).
// IDs longer than 64 bytes are replaced, bounding log cardinality abuse.
func TraceIDFrom(r *http.Request) string {
	if id := r.Header.Get(TraceHeader); id != "" && len(id) <= 64 {
		return id
	}
	return NewTraceID()
}

// Span is one named timed region inside a trace.
type Span struct {
	Name  string
	Start time.Time
	End   time.Time
}

// DurationMS returns the span length in milliseconds.
func (s Span) DurationMS() float64 {
	return float64(s.End.Sub(s.Start)) / float64(time.Millisecond)
}

// Trace collects spans for one request. It is safe for concurrent use:
// the router records per-shard fetch spans from parallel goroutines.
type Trace struct {
	ID string

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace with the given ID.
func NewTrace(id string) *Trace {
	return &Trace{ID: id}
}

// StartSpan begins a named span; the returned func ends it.
func (t *Trace) StartSpan(name string) func() {
	start := time.Now()
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, Span{Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// AddSpan records an already-measured span.
func (t *Trace) AddSpan(name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// SpanAttrs renders the spans as alternating name/duration-ms pairs for
// slog (slog.Group("spans", trace.SpanAttrs()...)).
func (t *Trace) SpanAttrs() []any {
	t.mu.Lock()
	defer t.mu.Unlock()
	attrs := make([]any, 0, len(t.spans)*2)
	for _, s := range t.spans {
		attrs = append(attrs, s.Name, s.DurationMS())
	}
	return attrs
}
