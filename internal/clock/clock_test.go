package clock_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// goid returns the running goroutine's number.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestManualRunsLoopsInTimeOrder: Advance runs each due round itself, on
// its caller's goroutine, in time order with timers fired in between;
// two loops due at one instant run in registration order, and Now reads
// the instant a round was due.
func TestManualRunsLoopsInTimeOrder(t *testing.T) {
	clk := clock.NewManual(t0)
	var got []string
	caller := goid()
	loop := func(name string) func() {
		return func() {
			if g := goid(); g != caller {
				t.Errorf("%s ran on goroutine %s, Advance on %s", name, g, caller)
			}
			got = append(got, fmt.Sprintf("%s@%v", name, clk.Now().Sub(t0)))
		}
	}
	clk.Every(3*time.Second, loop("a"))
	clk.Every(2*time.Second, loop("b"))
	timer := clk.After(5 * time.Second)
	clk.Advance(6 * time.Second)
	want := "[b@2s a@3s b@4s a@6s b@6s]"
	if fmt.Sprint(got) != want {
		t.Errorf("rounds = %v, want %s", got, want)
	}
	select {
	case at := <-timer:
		if at.Sub(t0) != 5*time.Second {
			t.Errorf("timer fired at %v, want 5s", at.Sub(t0))
		}
	default:
		t.Error("timer due at 5s did not fire by 6s")
	}
	if now := clk.Now().Sub(t0); now != 6*time.Second {
		t.Errorf("Now = %v after Advance(6s), want 6s", now)
	}
}

// TestManualAfterNonPositive: After(d <= 0) is ready at once, as
// time.After is, with no Advance.
func TestManualAfterNonPositive(t *testing.T) {
	clk := clock.NewManual(t0)
	for _, d := range []time.Duration{0, -time.Second} {
		select {
		case at := <-clk.After(d):
			if !at.Equal(t0) {
				t.Errorf("After(%v) sent %v, want the current time", d, at)
			}
		default:
			t.Errorf("After(%v) is not ready at once", d)
		}
	}
}

// TestManualStopIdempotent: a stopped loop never runs again, and a
// second stop is harmless.
func TestManualStopIdempotent(t *testing.T) {
	clk := clock.NewManual(t0)
	runs := 0
	stop := clk.Every(time.Second, func() { runs++ })
	clk.Advance(2 * time.Second)
	stop()
	stop()
	clk.Advance(5 * time.Second)
	if runs != 2 {
		t.Errorf("loop ran %d times, want the 2 before stop", runs)
	}
}

// TestManualBlockUntil: BlockUntil returns once another goroutine has
// armed its timers, and Advance then fires them.
func TestManualBlockUntil(t *testing.T) {
	clk := clock.NewManual(t0)
	fired := make(chan time.Time, 2)
	for i := 1; i <= 2; i++ {
		d := time.Duration(i) * time.Second
		go func() { fired <- <-clk.After(d) }()
	}
	clk.BlockUntil(2)
	clk.Advance(2 * time.Second)
	for i := 0; i < 2; i++ {
		if at := (<-fired).Sub(t0); at != time.Second && at != 2*time.Second {
			t.Errorf("timer fired at %v", at)
		}
	}
}

// TestRealStopWaitsForRound: Real's stop returns only after a running
// round has returned, and no round starts after it.
func TestRealStopWaitsForRound(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var rounds, finished atomic.Int32
	stop := clock.Real{}.Every(time.Millisecond, func() {
		if rounds.Add(1) == 1 {
			close(entered)
			<-release
		}
		finished.Add(1)
	})
	<-entered
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a round was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	if finished.Load() != rounds.Load() {
		t.Fatalf("stop returned with %d of %d rounds finished", finished.Load(), rounds.Load())
	}
	after := rounds.Load()
	time.Sleep(5 * time.Millisecond)
	if rounds.Load() != after {
		t.Errorf("a round ran after stop returned")
	}
	stop()
}
