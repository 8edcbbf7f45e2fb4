// Package clock is the time of the control loops (gossip, member aging,
// canary watch) and of the tenants' token buckets; request timings stay
// on the wall.
package clock

import (
	"context"
	"slices"
	"sync"
	"time"
)

// Clock reads and waits on time.
type Clock interface {
	Now() time.Time
	// After sends the time once d has passed, at once if d <= 0.
	After(d time.Duration) <-chan time.Time
	// Every runs f once period, which must be positive, has passed since
	// the last round began (or since Every), until stop, which is
	// idempotent.
	Every(period time.Duration, f func()) (stop func())
}

// Real is the wall clock. Its Every runs f on a goroutine off a ticker;
// its stop returns once a running f has.
type Real struct{}

func (Real) Now() time.Time                         { return time.Now() }
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (Real) Every(period time.Duration, f func()) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				f()
			}
		}
	}()
	return func() { cancel(); <-done }
}

// Manual is a clock that moves only when Advance moves it.
type Manual struct {
	mu     sync.Mutex
	armed  sync.Cond // broadcast when After arms a timer
	now    time.Time
	loops  []*loop                      // in registration order
	timers map[chan time.Time]time.Time // armed by After, to their times
}

type loop struct {
	next   time.Time // when the next round is due
	period time.Duration
	f      func()
}

// NewManual returns a manual clock reading start.
func NewManual(start time.Time) *Manual {
	m := &Manual{now: start, timers: map[chan time.Time]time.Time{}}
	m.armed.L = &m.mu
	return m
}

func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

func (m *Manual) After(d time.Duration) <-chan time.Time {
	c := make(chan time.Time, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if d <= 0 {
		c <- m.now
	} else {
		m.timers[c] = m.now.Add(d)
		m.armed.Broadcast()
	}
	return c
}

func (m *Manual) Every(period time.Duration, f func()) (stop func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := &loop{next: m.now.Add(period), period: period, f: f}
	m.loops = append(m.loops, l)
	return func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.loops = slices.DeleteFunc(m.loops, func(x *loop) bool { return x == l })
	}
}

// Advance moves the clock by d, stopping where each loop's wait ends, in
// time then registration order, to fire the due timers and run the round
// on the caller's goroutine, Now reading that instant. Not reentrant.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.now.Add(d)
	for {
		var l *loop
		for _, x := range m.loops {
			if !x.next.After(end) && (l == nil || x.next.Before(l.next)) {
				l = x
			}
		}
		if m.now = end; l != nil {
			m.now = l.next
		}
		for c, due := range m.timers {
			if !due.After(m.now) {
				c <- due
				delete(m.timers, c)
			}
		}
		if l == nil {
			return
		}
		m.mu.Unlock()
		l.f()
		m.mu.Lock()
		l.next = l.next.Add(l.period)
	}
}

// BlockUntil waits until n timers armed by After are waiting to fire.
func (m *Manual) BlockUntil(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.timers) < n {
		m.armed.Wait()
	}
}
