// Package telemetry is the observability substrate of the serving stack:
// a named metric registry with Prometheus text-format exposition
// (wrapping the lock-free primitives of internal/metrics), a lightweight
// span tracer with traceparent propagation and a slow-trace ring buffer,
// HTTP middleware that ties both to structured access logs, and
// collectors for Go runtime and build-info metrics.
//
// The registry deliberately implements only the slice of the Prometheus
// exposition format the service needs — counters, gauges, histograms,
// labels — so the repo stays dependency-free while `curl /metrics`
// remains scrapeable by any Prometheus-compatible agent.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// Label is one metric label pair. Series within a family are keyed by
// their full label set.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry holds named instruments and exposes them in Prometheus text
// format. All methods are safe for concurrent use; instrument updates
// themselves stay on the lock-free internal/metrics primitives, the
// registry lock is only taken at registration and exposition time.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Collector)
	types      map[string]string // family name -> counter|gauge|histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{types: map[string]string{}}
}

// checkType panics on a name registered twice with conflicting types —
// a programming error that would emit an invalid exposition.
func (r *Registry) checkType(name, typ string) {
	if prev, ok := r.types[name]; ok && prev != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, prev, typ))
	}
	r.types[name] = typ
}

// Counter allocates a new counter and registers it under name/labels.
func (r *Registry) Counter(name, help string, labels ...Label) *metrics.Counter {
	c := &metrics.Counter{}
	r.RegisterCounter(name, help, c, labels...)
	return c
}

// RegisterCounter exposes an existing counter (e.g. one embedded in a
// worker pool) under name/labels.
func (r *Registry) RegisterCounter(name, help string, c *metrics.Counter, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkType(name, "counter")
	r.collectors = append(r.collectors, func(out *Collector) {
		out.Counter(name, help, float64(c.Value()), labels...)
	})
}

// RegisterGauge exposes an existing gauge under name/labels.
func (r *Registry) RegisterGauge(name, help string, g *metrics.Gauge, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkType(name, "gauge")
	r.collectors = append(r.collectors, func(out *Collector) {
		out.Gauge(name, help, float64(g.Value()), labels...)
	})
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkType(name, "gauge")
	r.collectors = append(r.collectors, func(out *Collector) {
		out.Gauge(name, help, fn(), labels...)
	})
}

// Histogram allocates a new histogram and registers it under name/labels.
func (r *Registry) Histogram(name, help string, labels ...Label) *metrics.Histogram {
	h := &metrics.Histogram{}
	r.RegisterHistogram(name, help, h, labels...)
	return h
}

// RegisterHistogram exposes an existing histogram under name/labels.
func (r *Registry) RegisterHistogram(name, help string, h *metrics.Histogram, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkType(name, "histogram")
	r.collectors = append(r.collectors, func(out *Collector) {
		out.Histogram(name, help, h, labels...)
	})
}

// Collect registers a callback that emits samples at scrape time — the
// hook for dynamic series like per-program counters, where the set of
// label values (programs in the cache) changes as the process runs.
func (r *Registry) Collect(fn func(*Collector)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// WritePrometheus writes every registered instrument in Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.write(w, false)
}

// WriteOpenMetrics writes every registered instrument in OpenMetrics
// text format (version 1.0.0): counter families drop their `_total`
// suffix in metadata lines, histogram buckets carry trace-linked
// exemplars, and the exposition is terminated with `# EOF`.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.write(w, true)
}

func (r *Registry) write(w io.Writer, openMetrics bool) error {
	r.mu.Lock()
	collectors := make([]func(*Collector), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	c := newCollector()
	c.openMetrics = openMetrics
	for _, fn := range collectors {
		fn(c)
	}
	return c.write(w)
}

// ContentTypePrometheus and ContentTypeOpenMetrics are the exposition
// content types /metrics negotiates between.
const (
	ContentTypePrometheus  = "text/plain; version=0.0.4; charset=utf-8"
	ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// AcceptsOpenMetrics reports whether an Accept header value asks for the
// OpenMetrics exposition format.
func AcceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mediaType) == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

// Handler serves GET /metrics. The exposition format is negotiated from
// the Accept header: scrapers asking for application/openmetrics-text
// (Prometheus does, when exemplar ingestion is on) get OpenMetrics with
// exemplars and the `# EOF` terminator; everyone else gets the classic
// Prometheus text format. Responses are marked Cache-Control: no-store —
// every scrape must observe live counters.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		if AcceptsOpenMetrics(req.Header.Get("Accept")) {
			w.Header().Set("Content-Type", ContentTypeOpenMetrics)
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", ContentTypePrometheus)
		_ = r.WritePrometheus(w)
	})
}

// Collector accumulates samples during one exposition pass, grouping
// them into families so all series of one name are emitted together (a
// format requirement when static instruments and Collect callbacks share
// a family name).
type Collector struct {
	order []string
	fams  map[string]*family
	// openMetrics selects the OpenMetrics exposition: exemplars are
	// captured from histograms and metadata follows OpenMetrics naming.
	openMetrics bool
}

type family struct {
	help    string
	typ     string
	samples []sample
}

type sample struct {
	suffix   string // "", "_bucket", "_sum", "_count"
	labels   []Label
	value    float64
	exemplar *metrics.Exemplar // OpenMetrics bucket exemplar, or nil
}

func newCollector() *Collector {
	return &Collector{fams: map[string]*family{}}
}

func (c *Collector) add(name, help, typ, suffix string, labels []Label, v float64) {
	c.addExemplar(name, help, typ, suffix, labels, v, nil)
}

func (c *Collector) addExemplar(name, help, typ, suffix string, labels []Label, v float64, ex *metrics.Exemplar) {
	f, ok := c.fams[name]
	if !ok {
		f = &family{help: help, typ: typ}
		c.fams[name] = f
		c.order = append(c.order, name)
	}
	f.samples = append(f.samples, sample{suffix: suffix, labels: labels, value: v, exemplar: ex})
}

// Counter emits one counter sample.
func (c *Collector) Counter(name, help string, v float64, labels ...Label) {
	c.add(name, help, "counter", "", labels, v)
}

// Gauge emits one gauge sample.
func (c *Collector) Gauge(name, help string, v float64, labels ...Label) {
	c.add(name, help, "gauge", "", labels, v)
}

// Histogram emits the full Prometheus histogram sample set (cumulative
// _bucket series, _sum, _count) for one metrics.Histogram. Bucket `le`
// bounds are the histogram's inclusive upper bounds in its native unit
// (µs for latency histograms); empty buckets are elided except +Inf,
// which the format requires.
func (c *Collector) Histogram(name, help string, h *metrics.Histogram, labels ...Label) {
	counts := h.BucketCounts()
	exemplar := func(i int) *metrics.Exemplar {
		if !c.openMetrics {
			return nil
		}
		if e, ok := h.ExemplarAt(i); ok {
			return &e
		}
		return nil
	}
	cum := int64(0)
	for i, n := range counts {
		cum += n
		if n == 0 || i == len(counts)-1 {
			continue
		}
		le := strconv.FormatInt(metrics.BucketUpperBound(i), 10)
		c.addExemplar(name, help, "histogram", "_bucket",
			append(append([]Label(nil), labels...), L("le", le)), float64(cum), exemplar(i))
	}
	c.addExemplar(name, help, "histogram", "_bucket",
		append(append([]Label(nil), labels...), L("le", "+Inf")), float64(cum), exemplar(len(counts)-1))
	c.add(name, help, "histogram", "_sum", labels, float64(h.Sum()))
	c.add(name, help, "histogram", "_count", labels, float64(h.Count()))
}

func (c *Collector) write(w io.Writer) error {
	var b strings.Builder
	for _, name := range c.order {
		f := c.fams[name]
		// OpenMetrics counter metadata names the family without the
		// `_total` suffix; the sample lines keep it. The Prometheus
		// format uses the full name in both places.
		meta := name
		if c.openMetrics && f.typ == "counter" {
			meta = strings.TrimSuffix(name, "_total")
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", meta, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", meta, f.typ)
		for _, s := range f.samples {
			b.WriteString(name)
			b.WriteString(s.suffix)
			writeLabels(&b, s.labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.value))
			if c.openMetrics && s.exemplar != nil {
				writeExemplar(&b, s.exemplar)
			}
			b.WriteByte('\n')
		}
	}
	if c.openMetrics {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeExemplar appends one OpenMetrics exemplar clause:
// ` # {trace_id="..."} <value> [<unix seconds>]`.
func writeExemplar(b *strings.Builder, ex *metrics.Exemplar) {
	b.WriteString(` # {trace_id="`)
	b.WriteString(escapeLabel(ex.TraceID))
	b.WriteString(`"} `)
	b.WriteString(formatValue(float64(ex.Value)))
	if ex.UnixNano != 0 {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(float64(ex.UnixNano)/1e9, 'f', 3, 64))
	}
}

func writeLabels(b *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
