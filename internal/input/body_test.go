package input

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// unread fails the test if the body is touched: a refusal from
// Content-Length must come before the first Read.
type unread struct{ t *testing.T }

func (u unread) Read([]byte) (int, error) { u.t.Error("body read"); return 0, io.EOF }
func (unread) Close() error               { return nil }

// TestReadBody: one pooled read sized from Content-Length (no doubling past
// an exact fit), growth for a chunked body, 413 before reading a body that
// declares itself over the limit, 400 for one that ends under its length.
func TestReadBody(t *testing.T) {
	request := func(body io.ReadCloser, length int64) (*httptest.ResponseRecorder, *http.Request) {
		r := httptest.NewRequest("POST", "/v1/programs/x/scan", nil)
		r.Body, r.ContentLength = body, length
		return httptest.NewRecorder(), r
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 16<<10) // 256 KiB, over the pool's initial 64 KiB
	for _, length := range []int64{int64(len(payload)), -1} {
		w, r := request(io.NopCloser(bytes.NewReader(payload)), length)
		buf, ok := ReadBody(w, r)
		if !ok || !bytes.Equal(buf, payload) {
			t.Fatalf("Content-Length %d: ok=%v, %d bytes, status %d", length, ok, len(buf), w.Code)
		}
		if length > 0 && cap(buf) != len(payload) {
			t.Errorf("Content-Length %d: buffer of %d for a body of %d, want an exact fit", length, cap(buf), len(payload))
		}
		Bodies.Put(buf)
	}
	w, r := request(unread{t}, MaxBody+1)
	if _, ok := ReadBody(w, r); ok || w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("Content-Length over the limit: ok=%v status %d, want 413", ok, w.Code)
	}
	w, r = request(io.NopCloser(io.LimitReader(neverEnding('x'), MaxBody+1)), -1)
	if _, ok := ReadBody(w, r); ok || w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked body over the limit: ok=%v status %d, want 413", ok, w.Code)
	}
	w, r = request(io.NopCloser(bytes.NewReader(payload[:10])), 100)
	if _, ok := ReadBody(w, r); ok || w.Code != http.StatusBadRequest {
		t.Errorf("10 bytes under Content-Length 100: ok=%v status %d, want 400", ok, w.Code)
	}
	var e struct{ Error string }
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "unexpected EOF") {
		t.Errorf("short body error = %q, %v", w.Body, err)
	}
}

// TestReadChunks: a body comes back whole in chunks of at most the size
// asked for, every one but the last full and only the last flagged, with
// a Content-Length and without one, however the reader splits its reads;
// a failed read is answered as ReadBody answers it.
func TestReadChunks(t *testing.T) {
	const size = 16
	payload := []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN")
	for _, n := range []int{0, 5, size, size + 1, 3 * size} {
		for _, length := range []int64{int64(n), -1} {
			r := httptest.NewRequest("POST", "/v1/programs/x/scan", nil)
			r.Body, r.ContentLength = io.NopCloser(iotest.OneByteReader(bytes.NewReader(payload[:n]))), length
			w := httptest.NewRecorder()
			c, ok := ReadChunks(w, r, size)
			if !ok {
				t.Fatalf("%d bytes, Content-Length %d: refused with %d", n, length, w.Code)
			}
			var got []byte
			for chunks := 1; ; chunks++ {
				chunk, last, err := c.Next()
				if err != nil {
					t.Fatalf("%d bytes, Content-Length %d: %v", n, length, err)
				}
				got = append(got, chunk...)
				if last {
					if want := max(1, (n+size-1)/size); chunks != want {
						t.Errorf("%d bytes, Content-Length %d: %d chunks, want %d", n, length, chunks, want)
					}
					break
				}
				if len(chunk) != size {
					t.Fatalf("%d bytes, Content-Length %d: a chunk of %d before the last, want %d", n, length, len(chunk), size)
				}
			}
			if !bytes.Equal(got, payload[:n]) || c.Refuse(w) {
				t.Errorf("%d bytes, Content-Length %d: read %q, refused %v", n, length, got, w.Code != http.StatusOK)
			}
			c.Close()
		}
	}
	for _, tc := range []struct {
		name   string
		body   io.Reader
		length int64
		status int
	}{
		{"chunked body over the limit", io.LimitReader(neverEnding('x'), MaxBody+1), -1, http.StatusRequestEntityTooLarge},
		{"10 bytes under Content-Length 100", bytes.NewReader(payload[:10]), 100, http.StatusBadRequest},
		{"a body cut short", io.MultiReader(bytes.NewReader(payload), iotest.ErrReader(io.ErrClosedPipe)), -1, http.StatusBadRequest},
	} {
		r := httptest.NewRequest("POST", "/v1/programs/x/scan", nil)
		r.Body, r.ContentLength = io.NopCloser(tc.body), tc.length
		w := httptest.NewRecorder()
		c, ok := ReadChunks(w, r, 1<<20)
		if !ok {
			t.Fatalf("%s: refused before a read", tc.name)
		}
		var err error
		for last := false; !last && err == nil; {
			_, last, err = c.Next()
		}
		if err == nil || !c.Refuse(w) || w.Code != tc.status {
			t.Errorf("%s: err %v, status %d, want %d", tc.name, err, w.Code, tc.status)
		}
		c.Close()
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/programs/x/scan", nil)
	r.Body, r.ContentLength = unread{t}, MaxBody+1
	if _, ok := ReadChunks(w, r, 1<<20); ok || w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("Content-Length over the limit: ok=%v status %d, want 413", ok, w.Code)
	}
}

type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}
