package input

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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

type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}
