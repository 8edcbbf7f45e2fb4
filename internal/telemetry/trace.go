package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"
)

// TraceParentHeader is the W3C trace-context header the service reads
// and echoes: 00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>.
const TraceParentHeader = "Traceparent"

// Span is one timed stage inside a trace (cache lookup, compile, queue
// wait, scan, reconfig apply, ...). Start is the offset from the trace
// start, so a span list reads as a waterfall.
type Span struct {
	Name       string `json:"name"`
	StartUS    int64  `json:"start_us"`
	DurationUS int64  `json:"duration_us"`
	// Attrs says what the stage did (an update's compile: how many
	// patterns it reused and how many it compiled; its image_build and
	// diff: how large the image and the delta came out).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Trace is one request's trace: an ID (propagated from the caller's
// traceparent or freshly minted), a span list, and string attributes.
// All methods are safe for concurrent use and nil-safe, so
// instrumentation points never need to check whether tracing is on.
type Trace struct {
	id     string
	parent string // caller's span ID when propagated
	name   string
	start  time.Time

	mu    sync.Mutex
	spans []Span
	attrs map[string]string
}

// ID returns the 32-hex-digit trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// AddSpan records one completed stage with an explicit start time and,
// optionally, attributes of the stage.
func (t *Trace) AddSpan(name string, start time.Time, d time.Duration, attrs ...Label) {
	if t == nil {
		return
	}
	sp := Span{
		Name:       name,
		StartUS:    start.Sub(t.start).Microseconds(),
		DurationUS: d.Microseconds(),
	}
	if len(attrs) > 0 {
		sp.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			sp.Attrs[a.Key] = a.Value
		}
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// StartSpan starts a stage and returns the function that ends it, which
// takes the attributes the stage turned out to have.
func (t *Trace) StartSpan(name string) func(attrs ...Label) {
	if t == nil {
		return func(...Label) {}
	}
	start := time.Now()
	return func(attrs ...Label) { t.AddSpan(name, start, time.Since(start), attrs...) }
}

// SetAttr attaches a string attribute (method, path, status, ...).
func (t *Trace) SetAttr(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.attrs == nil {
		t.attrs = map[string]string{}
	}
	t.attrs[key] = value
	t.mu.Unlock()
}

// TraceRecord is the JSON form of a finished trace served by
// GET /debug/traces.
type TraceRecord struct {
	TraceID    string            `json:"trace_id"`
	ParentSpan string            `json:"parent_span,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationUS int64             `json:"duration_us"`
	Spans      []Span            `json:"spans,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Tracer mints trace IDs, finishes traces, and retains the recent slow
// ones in a fixed-size ring buffer for GET /debug/traces.
type Tracer struct {
	slow time.Duration // retain traces at least this slow; 0 retains all

	mu       sync.Mutex
	ring     []TraceRecord
	next     int
	filled   bool
	finished int64
	retained int64
}

// NewTracer returns a tracer retaining up to ringSize finished traces
// whose total duration is at least slow (slow == 0 retains every trace,
// which is the right default for a debugging ring).
func NewTracer(ringSize int, slow time.Duration) *Tracer {
	if ringSize <= 0 {
		ringSize = 64
	}
	return &Tracer{slow: slow, ring: make([]TraceRecord, ringSize)}
}

// Start begins a trace named name. traceparent, when it parses as a
// valid W3C header, pins the trace ID to the caller's and records its
// span ID as the parent; otherwise a fresh random ID is minted.
func (t *Tracer) Start(name, traceparent string) *Trace {
	if t == nil {
		return nil
	}
	tr := &Trace{name: name, start: time.Now()}
	if id, parent, ok := ParseTraceParent(traceparent); ok {
		tr.id, tr.parent = id, parent
	} else {
		tr.id = fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64()|1)
	}
	return tr
}

// Finish completes the trace, recording it into the ring when it is
// slow enough, and returns its total duration.
func (t *Tracer) Finish(tr *Trace) time.Duration {
	if t == nil || tr == nil {
		return 0
	}
	d := time.Since(tr.start)
	t.mu.Lock()
	t.finished++
	if d >= t.slow {
		tr.mu.Lock()
		rec := TraceRecord{
			TraceID:    tr.id,
			ParentSpan: tr.parent,
			Name:       tr.name,
			Start:      tr.start,
			DurationUS: d.Microseconds(),
			Spans:      append([]Span(nil), tr.spans...),
		}
		if len(tr.attrs) > 0 {
			rec.Attrs = make(map[string]string, len(tr.attrs))
			for k, v := range tr.attrs {
				rec.Attrs[k] = v
			}
		}
		tr.mu.Unlock()
		t.ring[t.next] = rec
		t.next = (t.next + 1) % len(t.ring)
		if t.next == 0 {
			t.filled = true
		}
		t.retained++
	}
	t.mu.Unlock()
	return d
}

// Traces returns the retained traces, most recent first.
func (t *Tracer) Traces() []TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.filled {
		n = len(t.ring)
	}
	out := make([]TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}

// Handler serves GET /debug/traces: the retained slow traces plus the
// tracer's totals, newest first.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.mu.Lock()
		finished, retained := t.finished, t.retained
		t.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		_ = json.NewEncoder(w).Encode(struct {
			Finished     int64         `json:"finished"`
			Retained     int64         `json:"retained"`
			SlowUS       int64         `json:"slow_threshold_us"`
			RingCapacity int           `json:"ring_capacity"`
			Traces       []TraceRecord `json:"traces"`
		}{finished, retained, t.slow.Microseconds(), len(t.ring), t.Traces()})
	})
}

// ParseTraceParent parses a traceparent header into (traceID, spanID).
// Malformed or all-zero values report ok=false.
func ParseTraceParent(h string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", "", false
	}
	if parts[0] != "00" || !isHex(parts[1]) || !isHex(parts[2]) || !isHex(parts[3]) {
		return "", "", false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

func isHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// traceKey is the context key type for the ambient trace.
type traceKey struct{}

// ContextWithTrace returns ctx carrying tr.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFromContext returns the ambient trace, or nil (every Trace method
// is nil-safe, so callers use the result unconditionally).
func TraceFromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}
