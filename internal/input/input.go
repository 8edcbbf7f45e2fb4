// Package input provides pooled chunk buffers for the scan paths. Pool
// recycles variable-size chunk buffers for request bodies with a
// retention cap so one oversized request cannot pin its capacity for the
// process lifetime. HTTP request bodies are read over it under one limit
// (LimitBody) in one of two ways: ReadBody reads a body whole, for a
// feed, a JSON request and a cluster gateway; ReadChunks reads a one-shot
// scan's body a chunk at a time into one buffer, so the scan holds a
// chunk, not the body. Both refuse a body the same way. Shared lends one
// buffer to several outgoing requests.
package input

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// Pool recycles chunk buffers. Buffers are handed out with length zero
// and grown by the caller; Put drops buffers whose capacity exceeds the
// retention cap so the pool's footprint tracks the common case, not the
// largest request ever seen.
type Pool struct {
	initial int
	retain  int
	p       sync.Pool
}

// NewPool returns a pool whose fresh buffers have capacity initial and
// which retains returned buffers up to capacity retain.
func NewPool(initial, retain int) *Pool {
	return &Pool{initial: initial, retain: retain}
}

// Get returns a zero-length buffer with at least the pool's initial
// capacity.
func (p *Pool) Get() []byte { return p.GetCap(0) }

// GetCap returns a zero-length buffer of capacity at least n (and at least
// the pool's initial capacity). A pooled buffer that is too small is
// dropped, not put back: put back it is the next buffer drawn, and a
// workload of large bodies allocates on every draw; dropped, the pool
// converges on buffers of the size the workload needs.
func (p *Pool) GetCap(n int) []byte {
	if v := p.p.Get(); v != nil {
		if b := *v.(*[]byte); cap(b) >= n {
			return b[:0]
		}
	}
	return make([]byte, 0, max(n, p.initial))
}

// Put returns a buffer to the pool unless it outgrew the retention cap.
// The caller must not use buf afterwards.
func (p *Pool) Put(buf []byte) {
	if cap(buf) > p.retain {
		return
	}
	b := buf[:0]
	p.p.Put(&b)
}

// Shared is one pooled buffer read by several consumers that finish in
// their own time — an http.Transport may still be writing a request body
// after Do has returned, and closes it when done. The buffer goes back to
// its pool on the last release: the holder's and one per Reader handed out.
type Shared struct {
	Data []byte
	pool *Pool
	refs atomic.Int32 // readers still open; the holder is the one below zero
}

// Share wraps a buffer the caller took from p; Release stands in for Put.
func (p *Pool) Share(buf []byte) *Shared { return &Shared{Data: buf, pool: p} }

// Release gives up the holder's reference. Data must not be used after.
func (s *Shared) Release() {
	if s.refs.Add(-1) < 0 {
		s.pool.Put(s.Data)
	}
}

// SharedReader reads a Shared's bytes from the start; its first Close
// releases its reference.
type SharedReader struct {
	bytes.Reader
	from   *Shared
	closed atomic.Bool
}

// Reader returns a new reader over the whole buffer.
func (s *Shared) Reader() *SharedReader {
	s.refs.Add(1)
	r := &SharedReader{from: s}
	r.Reset(s.Data)
	return r
}

// Again returns another reader over the same buffer: http.Request.GetBody.
func (r *SharedReader) Again() *SharedReader { return r.from.Reader() }

func (r *SharedReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.from.Release()
	}
	return nil
}
