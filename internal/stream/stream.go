// Package stream holds what the repository keeps of the §3.3 bank I/O
// subsystem: a bounded FIFO (the shape of the 8-entry per-array input
// FIFOs; internal/service's worker shards queue tenant tasks on it) and,
// in bank.go, the analytic models of how much NBVA bit-vector-processing
// stall latency the two buffering levels hide when arrays stall at
// different times ("hide the latency across arrays partially").
// internal/sim computes bank cycles from those models; the ping-pong
// buffer, arbiter and output buffers themselves are not instantiated.
package stream

import "fmt"

// FIFO is a fixed-capacity ring buffer.
type FIFO[T any] struct {
	buf        []T
	head, size int
}

// NewFIFO creates a FIFO with the given capacity.
func NewFIFO[T any](capacity int) *FIFO[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("stream: FIFO capacity %d", capacity))
	}
	return &FIFO[T]{buf: make([]T, capacity)}
}

// Full reports whether no more items fit.
func (f *FIFO[T]) Full() bool { return f.size == len(f.buf) }

// Empty reports whether the FIFO holds nothing.
func (f *FIFO[T]) Empty() bool { return f.size == 0 }

// Push enqueues an item; it reports false (and drops nothing) when full.
func (f *FIFO[T]) Push(v T) bool {
	if f.Full() {
		return false
	}
	f.buf[(f.head+f.size)%len(f.buf)] = v
	f.size++
	return true
}

// Peek returns the oldest item without dequeuing it.
func (f *FIFO[T]) Peek() (T, bool) {
	var zero T
	if f.Empty() {
		return zero, false
	}
	return f.buf[f.head], true
}

// Pop dequeues the oldest item.
func (f *FIFO[T]) Pop() (T, bool) {
	var zero T
	if f.Empty() {
		return zero, false
	}
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) % len(f.buf)
	f.size--
	return v, true
}
