package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterAndGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(10 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 101 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MaxUS != 10000 {
		t.Errorf("max = %d, want 10000", s.MaxUS)
	}
	// 100µs lands in bucket [64,128)µs: its upper bound is 128.
	if s.P50US != 128 {
		t.Errorf("p50 = %d, want 128", s.P50US)
	}
	if s.P99US > s.MaxUS*2 || s.P99US < s.P50US {
		t.Errorf("p99 = %d out of range (p50 %d, max %d)", s.P99US, s.P50US, s.MaxUS)
	}
	if s.MeanUS < 100 || s.MeanUS > 300 {
		t.Errorf("mean = %f", s.MeanUS)
	}
}

func TestHistogramZero(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.P50US != 0 || s.MeanUS != 0 {
		t.Errorf("zero histogram snapshot = %+v", s)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 1023: 10, 1024: 11}
	for us, want := range cases {
		if got := bucketOf(us); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", us, got, want)
		}
	}
}

// TestQuantileFirstBuckets is the regression test for quantile reporting
// the bucket upper bound for the first bucket: a histogram fed only
// sub-microsecond observations must answer p50_us: 0 (not 2), and one
// fed 1µs observations must answer 1.
func TestQuantileFirstBuckets(t *testing.T) {
	var sub Histogram
	for i := 0; i < 50; i++ {
		sub.Observe(300 * time.Nanosecond) // truncates to 0µs
	}
	if s := sub.Snapshot(); s.P50US != 0 || s.P90US != 0 || s.P99US != 0 {
		t.Errorf("sub-µs quantiles = %+v, want all 0", s)
	}
	var one Histogram
	for i := 0; i < 50; i++ {
		one.Observe(time.Microsecond)
	}
	if s := one.Snapshot(); s.P50US != 1 || s.P99US != 1 {
		t.Errorf("1µs quantiles = %+v, want all 1", s)
	}
}

func TestHistogramBucketAccessors(t *testing.T) {
	var h Histogram
	h.ObserveValue(0)
	h.ObserveValue(1)
	h.ObserveValue(100)
	if h.Count() != 3 || h.Sum() != 101 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	counts := h.BucketCounts()
	if len(counts) != histBuckets {
		t.Fatalf("len(counts) = %d, want %d", len(counts), histBuckets)
	}
	if counts[0] != 1 || counts[1] != 1 || counts[bucketOf(100)] != 1 {
		t.Errorf("bucket counts = %v", counts)
	}
	if BucketUpperBound(0) != 0 || BucketUpperBound(1) != 1 || BucketUpperBound(2) != 3 || BucketUpperBound(7) != 127 {
		t.Errorf("bucket bounds = %d %d %d %d", BucketUpperBound(0), BucketUpperBound(1), BucketUpperBound(2), BucketUpperBound(7))
	}
	// 100µs lands in the bucket whose inclusive upper bound is 127.
	if got := BucketUpperBound(bucketOf(100)); got != 127 {
		t.Errorf("upper bound of bucketOf(100) = %d, want 127", got)
	}
}

// TestHistogramConcurrent hammers Observe from several goroutines while
// another repeatedly snapshots; run under -race this is the data-race
// guard for the lock-free histogram, and afterwards the totals must add
// up exactly.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 5000
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count < 0 || s.MeanUS < 0 {
				t.Error("negative snapshot fields")
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*i%2000) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*perG)
	}
	var inBuckets int64
	for _, c := range h.BucketCounts() {
		inBuckets += c
	}
	if inBuckets != goroutines*perG {
		t.Fatalf("bucketed = %d, want %d", inBuckets, goroutines*perG)
	}
}
