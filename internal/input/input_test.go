package input

import (
	"bytes"
	"io"
	"testing"
)

func TestPoolRetention(t *testing.T) {
	p := NewPool(64, 1024)
	buf := p.Get()
	if len(buf) != 0 || cap(buf) < 64 {
		t.Fatalf("Get: len %d cap %d", len(buf), cap(buf))
	}
	buf = append(buf, bytes.Repeat([]byte("x"), 100)...)
	p.Put(buf)
	again := p.Get()
	if len(again) != 0 {
		t.Errorf("recycled buffer has len %d, want 0", len(again))
	}
	// Oversized buffers are dropped, not retained.
	big := make([]byte, 0, 4096)
	p.Put(big)
	if got := p.Get(); cap(got) > 1024 {
		t.Errorf("pool retained %d-cap buffer past the %d cap", cap(got), 1024)
	}
}

// TestPoolGetCapDropsSmall: a pooled buffer too small for the request is
// dropped, so the pool converges on the sizes asked of it.
func TestPoolGetCapDropsSmall(t *testing.T) {
	p := NewPool(64, 4096)
	p.Put(make([]byte, 0, 64))
	if got := p.GetCap(1000); cap(got) != 1000 || len(got) != 0 {
		t.Fatalf("GetCap(1000) = len %d cap %d, want an exact fresh buffer", len(got), cap(got))
	}
	if got := p.GetCap(10); cap(got) < 64 {
		t.Errorf("GetCap(10) = cap %d, want at least the initial 64", cap(got))
	}
}

// TestSharedReleasesOnce: the buffer returns to the pool only after the
// holder and every reader are done, whatever the order, and a reader closed
// twice releases once.
func TestSharedReleasesOnce(t *testing.T) {
	for _, holderFirst := range []bool{true, false} {
		p := NewPool(64, 4096)
		s := p.Share(append(p.Get(), "payload"...))
		r1 := s.Reader()
		r2 := r1.Again()
		if got, _ := io.ReadAll(r2); string(got) != "payload" {
			t.Fatalf("reader read %q", got)
		}
		if holderFirst {
			s.Release()
		}
		r1.Close()
		r1.Close()
		if s.refs.Load() < 0 {
			t.Fatalf("holderFirst=%v: released with a reader still open", holderFirst)
		}
		r2.Close()
		if !holderFirst {
			if s.refs.Load() < 0 {
				t.Fatal("released with the holder still holding")
			}
			s.Release()
		}
		if got := s.refs.Load(); got != -1 {
			t.Errorf("holderFirst=%v: refs = %d after every release, want -1 (put back once)", holderFirst, got)
		}
	}
}
