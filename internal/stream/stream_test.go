package stream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFIFOBasics(t *testing.T) {
	f := NewFIFO[int](3)
	if !f.Empty() || f.Full() || len(f.buf) != 3 {
		t.Fatal("fresh FIFO state wrong")
	}
	for i := 1; i <= 3; i++ {
		if !f.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if f.Push(4) {
		t.Error("push into full FIFO succeeded")
	}
	for i := 1; i <= 3; i++ {
		v, ok := f.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Error("pop from empty FIFO succeeded")
	}
}

func TestFIFOWrapAround(t *testing.T) {
	f := NewFIFO[int](2)
	for round := 0; round < 5; round++ {
		f.Push(round * 10)
		f.Push(round*10 + 1)
		a, _ := f.Pop()
		b, _ := f.Pop()
		if a != round*10 || b != round*10+1 {
			t.Fatalf("round %d: %d %d", round, a, b)
		}
	}
}

func TestPropFIFOOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewFIFO[int](8)
		var model []int
		for op := 0; op < 200; op++ {
			if r.Intn(2) == 0 {
				v := r.Int()
				if q.Push(v) {
					model = append(model, v)
				} else if len(model) != 8 {
					return false
				}
			} else {
				v, ok := q.Pop()
				if ok {
					if len(model) == 0 || model[0] != v {
						return false
					}
					model = model[1:]
				} else if len(model) != 0 {
					return false
				}
			}
			if q.size != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- bank throughput models ---

func traceOf(vals ...uint16) StallTrace { return StallTrace(vals) }

func TestLockstepCycles(t *testing.T) {
	traces := []StallTrace{traceOf(0, 4, 0), traceOf(2, 0, 0)}
	// symbol 0: max stall 2; symbol 1: 4; symbol 2: 0 -> 3 + 6 = 9.
	if got := LockstepCycles(traces, 3); got != 9 {
		t.Errorf("lockstep = %d", got)
	}
}

func TestIndependentCycles(t *testing.T) {
	traces := []StallTrace{traceOf(0, 4, 0), traceOf(2, 0, 0)}
	// array 0: 3+4=7; array 1: 3+2=5 -> 7.
	if got := IndependentCycles(traces, 3); got != 7 {
		t.Errorf("independent = %d", got)
	}
	if got := IndependentCycles(nil, 5); got != 5 {
		t.Errorf("no arrays = %d", got)
	}
}

func TestWindowedBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	chars := 400
	for trial := 0; trial < 30; trial++ {
		nArrays := r.Intn(3) + 2
		traces := make([]StallTrace, nArrays)
		for i := range traces {
			tr := make(StallTrace, chars)
			for k := range tr {
				if r.Intn(10) == 0 {
					tr[k] = uint16(r.Intn(16) + 1)
				}
			}
			traces[i] = tr
		}
		lock := LockstepCycles(traces, chars)
		ind := IndependentCycles(traces, chars)
		for _, w := range []int{1, 8, DefaultWindow, 100000} {
			win := WindowedCycles(traces, chars, w)
			if win < ind || win > lock {
				t.Fatalf("window %d: %d not in [%d, %d]", w, win, ind, lock)
			}
		}
		// Huge window converges to independent.
		if got := WindowedCycles(traces, chars, 1<<20); got != ind {
			t.Errorf("infinite window = %d, want %d", got, ind)
		}
		// Monotone in window size.
		prev := int64(1 << 62)
		for _, w := range []int{1, 4, 16, 64, DefaultWindow, 4096} {
			got := WindowedCycles(traces, chars, w)
			if got > prev {
				t.Fatalf("window cycles not monotone: w=%d %d > %d", w, got, prev)
			}
			prev = got
		}
	}
}

func TestWindowedNoStalls(t *testing.T) {
	traces := []StallTrace{make(StallTrace, 100), make(StallTrace, 100)}
	if got := WindowedCycles(traces, 100, 0); got != 100 {
		t.Errorf("no-stall cycles = %d", got)
	}
	if got := WindowedCycles(nil, 100, 8); got != 100 {
		t.Errorf("no arrays = %d", got)
	}
}

func TestWindowedHidesDisjointStalls(t *testing.T) {
	// Two arrays stall at different symbols; with a window they overlap.
	chars := 200
	a := make(StallTrace, chars)
	b := make(StallTrace, chars)
	for k := 0; k < chars; k += 20 {
		a[k] = 8
		if k+10 < chars {
			b[k+10] = 8
		}
	}
	lock := LockstepCycles(traces2(a, b), chars)
	win := WindowedCycles(traces2(a, b), chars, DefaultWindow)
	ind := IndependentCycles(traces2(a, b), chars)
	if win >= lock {
		t.Errorf("window %d did not beat lockstep %d", win, lock)
	}
	if win != ind {
		t.Errorf("disjoint stalls should fully hide: window %d vs independent %d", win, ind)
	}
}

func traces2(a, b StallTrace) []StallTrace { return []StallTrace{a, b} }
