package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestWritePrometheusGolden locks the exposition format: a counter, a
// labeled gauge, a gauge func, a histogram with known observations, and
// a dynamic collector must serialize to exactly this text.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rap_scans_total", "Total scans.")
	c.Add(42)
	var g metrics.Gauge
	r.RegisterGauge("rap_queue_depth", "Queued tasks.", &g, L("pool", "main"))
	g.Add(7)
	r.GaugeFunc("rap_uptime_seconds", "Process uptime.", func() float64 { return 1.5 })
	h := r.Histogram("rap_stage_duration_us", "Stage latency.", L("stage", "scan"))
	h.ObserveValue(0)   // sub-µs bucket, le="0"
	h.ObserveValue(1)   // le="1"
	h.ObserveValue(100) // [64,128) -> le="127"
	r.Collect(func(out *Collector) {
		out.Counter("rap_program_scans_total", "Per-program scans.", 3,
			L("program", `a"b\c`))
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP rap_scans_total Total scans.
# TYPE rap_scans_total counter
rap_scans_total 42
# HELP rap_queue_depth Queued tasks.
# TYPE rap_queue_depth gauge
rap_queue_depth{pool="main"} 7
# HELP rap_uptime_seconds Process uptime.
# TYPE rap_uptime_seconds gauge
rap_uptime_seconds 1.5
# HELP rap_stage_duration_us Stage latency.
# TYPE rap_stage_duration_us histogram
rap_stage_duration_us_bucket{stage="scan",le="0"} 1
rap_stage_duration_us_bucket{stage="scan",le="1"} 2
rap_stage_duration_us_bucket{stage="scan",le="127"} 3
rap_stage_duration_us_bucket{stage="scan",le="+Inf"} 3
rap_stage_duration_us_sum{stage="scan"} 101
rap_stage_duration_us_count{stage="scan"} 3
# HELP rap_program_scans_total Per-program scans.
# TYPE rap_program_scans_total counter
rap_program_scans_total{program="a\"b\\c"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryFamilyMerge checks that a static instrument and a Collect
// callback sharing one family name emit their series contiguously.
func TestRegistryFamilyMerge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rap_things_total", "Things.", L("kind", "static"))
	c.Inc()
	r.Collect(func(out *Collector) {
		out.Counter("rap_things_total", "Things.", 9, L("kind", "dynamic"))
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE rap_things_total counter") != 1 {
		t.Errorf("family emitted more than once:\n%s", out)
	}
	if !strings.Contains(out, `rap_things_total{kind="static"} 1`) ||
		!strings.Contains(out, `rap_things_total{kind="dynamic"} 9`) {
		t.Errorf("missing series:\n%s", out)
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on counter/gauge type conflict")
		}
	}()
	r := NewRegistry()
	r.Counter("rap_x", "x")
	r.RegisterGauge("rap_x", "x", &metrics.Gauge{})
}

// TestRegistryConcurrent scrapes while instruments are updated and
// registered from several goroutines; run under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rap_lat_us", "lat")
	c := r.Counter("rap_ops_total", "ops")
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				h.Observe(time.Duration(i%500) * time.Microsecond)
				c.Inc()
			}
		}()
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		first := true
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			if first {
				r.GaugeFunc("rap_extra", "late registration", func() float64 { return 1 })
				first = false
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-scraped
}

func TestRegistryHandlerHeaders(t *testing.T) {
	r := NewRegistry()
	r.Counter("rap_ok_total", "ok").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("cache-control = %q", cc)
	}
	if !strings.Contains(rec.Body.String(), "rap_ok_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}
