package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseTraceParent(t *testing.T) {
	id := strings.Repeat("ab", 16)
	span := strings.Repeat("cd", 8)
	good := "00-" + id + "-" + span + "-01"
	gotID, gotSpan, ok := ParseTraceParent(good)
	if !ok || gotID != id || gotSpan != span {
		t.Fatalf("ParseTraceParent(%q) = %q %q %v", good, gotID, gotSpan, ok)
	}
	for _, bad := range []string{
		"",
		"garbage",
		"00-" + id + "-" + span,         // missing flags
		"99-" + id + "-" + span + "-01", // unknown version
		"00-" + strings.ToUpper(id) + "-" + span + "-01",     // uppercase hex
		"00-" + strings.Repeat("0", 32) + "-" + span + "-01", // zero trace id
		"00-" + id + "-" + strings.Repeat("0", 16) + "-01",   // zero span id
		"00-" + id[:30] + "-" + span + "-01",                 // short trace id
		"00-" + id + "zz" + "-" + span[:14] + "-01",          // bad lengths
	} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted", bad)
		}
	}
}

func TestTracePropagationAndSpans(t *testing.T) {
	tracer := NewTracer(8, 0)
	id := strings.Repeat("ab", 16)
	tr := tracer.Start("scan", "00-"+id+"-1122334455667788-01")
	if tr.ID() != id {
		t.Fatalf("trace id = %s, want propagated %s", tr.ID(), id)
	}
	end := tr.StartSpan("scan")
	time.Sleep(time.Millisecond)
	end()
	tr.AddSpan("queue_wait", time.Now(), 5*time.Microsecond)
	tr.SetAttr("status", "200")
	if d := tracer.Finish(tr); d <= 0 {
		t.Fatalf("duration = %v", d)
	}
	recs := tracer.Traces()
	if len(recs) != 1 {
		t.Fatalf("retained %d traces", len(recs))
	}
	rec := recs[0]
	if rec.TraceID != id || rec.ParentSpan != "1122334455667788" {
		t.Errorf("record = %+v", rec)
	}
	if len(rec.Spans) != 2 || rec.Spans[0].Name != "scan" || rec.Spans[0].DurationUS < 900 {
		t.Errorf("spans = %+v", rec.Spans)
	}
	if rec.Attrs["status"] != "200" {
		t.Errorf("attrs = %+v", rec.Attrs)
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tracer := NewTracer(3, 0)
	for i := 0; i < 5; i++ {
		tr := tracer.Start(fmt.Sprintf("req-%d", i), "")
		tracer.Finish(tr)
	}
	recs := tracer.Traces()
	if len(recs) != 3 {
		t.Fatalf("retained %d, want 3", len(recs))
	}
	// Newest first: req-4, req-3, req-2.
	for i, want := range []string{"req-4", "req-3", "req-2"} {
		if recs[i].Name != want {
			t.Errorf("recs[%d] = %s, want %s", i, recs[i].Name, want)
		}
	}
}

func TestTracerSlowThreshold(t *testing.T) {
	tracer := NewTracer(8, 50*time.Millisecond)
	fast := tracer.Start("fast", "")
	tracer.Finish(fast)
	if got := tracer.Traces(); len(got) != 0 {
		t.Fatalf("fast trace retained: %+v", got)
	}
	slow := tracer.Start("slow", "")
	slow.start = time.Now().Add(-time.Second) // backdate instead of sleeping
	tracer.Finish(slow)
	recs := tracer.Traces()
	if len(recs) != 1 || recs[0].Name != "slow" {
		t.Fatalf("retained = %+v", recs)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.StartSpan("x")()
	tr.AddSpan("y", time.Now(), time.Second)
	tr.SetAttr("k", "v")
	if tr.ID() != "" {
		t.Error("nil trace leaked identity")
	}
	if got := TraceFromContext(httptest.NewRequest("GET", "/", nil).Context()); got != nil {
		t.Errorf("TraceFromContext on bare context = %v", got)
	}
}

// TestMiddleware drives a request through the tracing middleware and
// checks the full loop: span recorded from inside the handler, trace ID
// echoed in X-Trace-Id, the same ID in the slog access log and in the
// /debug/traces ring.
func TestMiddleware(t *testing.T) {
	tracer := NewTracer(8, 0)
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))

	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := TraceFromContext(r.Context())
		end := tr.StartSpan("scan")
		end()
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "body")
	})
	srv := httptest.NewServer(Middleware(tracer, logger, nil, inner))
	defer srv.Close()

	id := strings.Repeat("77", 16)
	req, _ := http.NewRequest("GET", srv.URL+"/scan/path", nil)
	req.Header.Set(TraceParentHeader, "00-"+id+"-aaaaaaaaaaaaaaaa-01")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != id {
		t.Errorf("X-Trace-Id = %q, want %q", got, id)
	}

	// Access log carries the trace ID and outcome.
	var line map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("access log not JSON: %v (%s)", err, logBuf.String())
	}
	if line["trace_id"] != id || line["status"] != float64(http.StatusTeapot) || line["path"] != "/scan/path" {
		t.Errorf("access log = %v", line)
	}

	// Ring buffer carries the trace with its handler span.
	rec := httptest.NewRecorder()
	tracer.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("cache-control = %q", cc)
	}
	var dump struct {
		Finished int64         `json:"finished"`
		Traces   []TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Finished != 1 || len(dump.Traces) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
	got := dump.Traces[0]
	if got.TraceID != id || len(got.Spans) != 1 || got.Spans[0].Name != "scan" {
		t.Errorf("trace record = %+v", got)
	}
	if got.Attrs["status"] != "418" || got.Attrs["method"] != "GET" {
		t.Errorf("attrs = %+v", got.Attrs)
	}
}
