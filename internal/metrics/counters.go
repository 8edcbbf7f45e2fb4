package metrics

// Runtime counters and latency histograms for the long-lived serving path
// (internal/service): lock-free on the hot path, snapshotted as JSON by
// the /stats endpoint. They complement the offline tables in metrics.go —
// those report one finished experiment, these report a live process.

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, open sessions).
type Gauge struct {
	v atomic.Int64
}

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of exponential latency buckets: bucket 0
// holds sub-microsecond observations (0µs after truncation), bucket 1
// holds exactly 1µs, and bucket i ≥ 2 counts observations in
// [2^(i-1), 2^i) microseconds, so the histogram spans up to ~36 minutes
// before saturating into the last bucket.
const histBuckets = 33

// Histogram is a fixed-bucket exponential latency histogram. Observations
// are atomically bucketed; Snapshot derives count/mean/max and
// approximate quantiles.
type Histogram struct {
	count   atomic.Int64
	sumUS   atomic.Int64
	maxUS   atomic.Int64
	buckets [histBuckets]atomic.Int64
	// exemplars holds one recent trace-linked observation per bucket
	// (nil until a traced observation lands there); see ObserveExemplar.
	exemplars [histBuckets]atomic.Pointer[Exemplar]
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveValue(d.Microseconds()) }

// ObserveValue records one raw value (in microseconds for latency
// histograms, but any non-negative unit works: bytes, cycles, ...).
func (h *Histogram) ObserveValue(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sumUS.Add(v)
	for {
		old := h.maxUS.Load()
		if v <= old || h.maxUS.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Exemplar links one observed value to the trace that produced it, so a
// histogram bucket on a dashboard can jump straight to a representative
// request. UnixNano 0 means "no timestamp" (exporters omit it).
type Exemplar struct {
	TraceID  string
	Value    int64
	UnixNano int64
}

// exemplarMinAge rate-limits exemplar replacement: a bucket keeps its
// current exemplar until it is at least this old, so the scrape-visible
// exemplar is stable under high observation rates while still rotating
// through recent traces.
const exemplarMinAge = int64(250 * time.Millisecond)

// ObserveExemplar records one duration and, when traceID is non-empty,
// offers it as the exemplar of the bucket the observation lands in.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID string) {
	h.ObserveValueExemplar(d.Microseconds(), traceID)
}

// ObserveValueExemplar is ObserveExemplar over a raw value.
func (h *Histogram) ObserveValueExemplar(v int64, traceID string) {
	h.observeExemplarAt(v, traceID, time.Now().UnixNano())
}

// ObserveValueExemplarAt records a value with an explicit exemplar
// timestamp — the deterministic entry point golden tests use.
func (h *Histogram) ObserveValueExemplarAt(v int64, traceID string, at time.Time) {
	h.observeExemplarAt(v, traceID, at.UnixNano())
}

func (h *Histogram) observeExemplarAt(v int64, traceID string, nowNS int64) {
	h.ObserveValue(v)
	if traceID == "" {
		return
	}
	if v < 0 {
		v = 0
	}
	slot := &h.exemplars[bucketOf(v)]
	if old := slot.Load(); old == nil || nowNS-old.UnixNano >= exemplarMinAge {
		slot.Store(&Exemplar{TraceID: traceID, Value: v, UnixNano: nowNS})
	}
}

// ExemplarAt returns the exemplar of bucket i, if one has been captured.
func (h *Histogram) ExemplarAt(i int) (Exemplar, bool) {
	if i < 0 || i >= histBuckets {
		return Exemplar{}, false
	}
	e := h.exemplars[i].Load()
	if e == nil {
		return Exemplar{}, false
	}
	return *e, true
}

func bucketOf(us int64) int {
	if us <= 0 {
		return 0
	}
	b := 1
	for v := us; v > 1 && b < histBuckets-1; v >>= 1 {
		b++
	}
	return b
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values (µs for latency histograms).
func (h *Histogram) Sum() int64 { return h.sumUS.Load() }

// BucketCounts returns the per-bucket observation counts, index-aligned
// with BucketUpperBound.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, histBuckets)
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// BucketUpperBound returns the inclusive upper bound of bucket i (0 for
// the sub-unit bucket, 1, 3, 7, 15, ...); the last bucket is unbounded
// and reports math.MaxInt64, which exporters should render as +Inf.
func BucketUpperBound(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= histBuckets-1:
		return math.MaxInt64
	default:
		return int64(1)<<uint(i) - 1
	}
}

// HistogramSnapshot is the JSON-friendly view of a Histogram.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	MaxUS  int64   `json:"max_us"`
	P50US  int64   `json:"p50_us"`
	P90US  int64   `json:"p90_us"`
	P99US  int64   `json:"p99_us"`
}

// Snapshot returns a consistent-enough view for reporting (buckets are
// read without a global lock; concurrent Observe calls may skew a live
// snapshot by a few samples, which is fine for monitoring).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		MaxUS: h.maxUS.Load(),
	}
	if s.Count > 0 {
		s.MeanUS = float64(h.sumUS.Load()) / float64(s.Count)
	}
	var counts [histBuckets]int64
	total := int64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s.P50US = quantile(counts[:], total, 0.50)
	s.P90US = quantile(counts[:], total, 0.90)
	s.P99US = quantile(counts[:], total, 0.99)
	return s
}

// quantile returns the upper bound (in µs) of the bucket containing the
// q-quantile observation. The first two buckets hold the exact values 0
// and 1 and are reported as such — a histogram of sub-microsecond
// observations answers p50_us: 0, not the old bucket-upper-bound 2.
func quantile(counts []int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	seen := int64(0)
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if i <= 1 {
				return int64(i) // exact-value buckets: 0µs and 1µs
			}
			return int64(1) << uint(i) // bucket upper bound
		}
	}
	return int64(1) << uint(histBuckets-1)
}
