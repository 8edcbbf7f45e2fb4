package rapclient_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/pkg/rapclient"
)

// TestRoundTrip drives the full typed surface against a real service:
// compile → scan → session open/feed/close → update → stats/health.
// This is the wire-contract pin: if a server-side JSON shape drifts,
// the mirrored client types stop round-tripping here.
func TestRoundTrip(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	cl := rapclient.New(srv.URL, rapclient.WithTenant("acme"))
	ctx := context.Background()

	prog, err := cl.Compile(ctx, []string{"cat", "dog"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prog.ID == "" || prog.NumPatterns != 2 {
		t.Fatalf("compile response = %+v", prog)
	}
	again, err := cl.Compile(ctx, []string{"cat", "dog"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.ID != prog.ID {
		t.Fatalf("second compile = %+v, want cache hit on %s", again, prog.ID)
	}

	scan, err := cl.Scan(ctx, prog.ID, []byte("the cat saw a dog"))
	if err != nil {
		t.Fatal(err)
	}
	if scan.Count != 2 || len(scan.Matches) != 2 {
		t.Fatalf("scan = %+v, want 2 matches", scan)
	}

	sess, err := cl.OpenSession(ctx, prog.ID)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := sess.Feed(ctx, []byte("ca"))
	if err != nil {
		t.Fatal(err)
	}
	if fed.Count != 0 || fed.Offset != 2 {
		t.Fatalf("feed 1 = %+v", fed)
	}
	fed, err = sess.Feed(ctx, []byte("t and dog"))
	if err != nil {
		t.Fatal(err)
	}
	if fed.Count != 2 {
		t.Fatalf("feed 2 = %+v, want the cross-chunk cat plus dog", fed)
	}
	closed, err := sess.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if closed.Summary.Bytes != 11 || closed.Summary.Chunks != 2 || closed.Summary.Matches != 2 {
		t.Fatalf("close summary = %+v", closed.Summary)
	}

	upd, err := cl.Update(ctx, prog.ID, []string{"bird"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if upd.Generation != 1 || upd.DeltaBytes <= 0 {
		t.Fatalf("update = %+v", upd)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scans < 3 || len(st.Programs) == 0 || st.Requests.Total < 6 || st.Requests.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status == "" || len(h.Components) == 0 {
		t.Fatalf("health = %+v", h)
	}
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("ready: %v", err)
	}
}

// TestTypedErrors pins the sentinel mapping for real service responses.
func TestTypedErrors(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := rapclient.New(srv.URL, rapclient.WithRetries(0))
	ctx := context.Background()

	if _, err := cl.Scan(ctx, "nope", []byte("x")); !errors.Is(err, rapclient.ErrNotFound) {
		t.Errorf("scan unknown program: %v, want ErrNotFound", err)
	}
	if _, err := cl.Compile(ctx, []string{"("}, nil); !errors.Is(err, rapclient.ErrCompile) {
		t.Errorf("bad pattern: %v, want ErrCompile", err)
	}
	if _, err := cl.Compile(ctx, nil, &rapclient.CompileOptions{ModePolicy: "bogus"}); !errors.Is(err, rapclient.ErrCompile) {
		t.Errorf("bad options: %v, want ErrCompile", err)
	}
	var apiErr *rapclient.APIError
	_, err := cl.Scan(ctx, "nope", nil)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Message == "" {
		t.Errorf("APIError = %+v", apiErr)
	}
}

// TestRetryAfterBackoff: 429s are retried after honoring Retry-After,
// and the hint surfaces through RetryAfterOf when retries run out.
func TestRetryAfterBackoff(t *testing.T) {
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"tenant over limit"}`))
			return
		}
		w.Write([]byte(`{"count":0,"matches":[]}`))
	}))
	defer stub.Close()

	// maxWait caps the server's 1s hint so the test stays fast.
	cl := rapclient.New(stub.URL, rapclient.WithRetries(3), rapclient.WithMaxWait(20*time.Millisecond))
	start := time.Now()
	if _, err := cl.Scan(context.Background(), "p", []byte("x")); err != nil {
		t.Fatalf("scan after retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server calls = %d, want 3", got)
	}
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Errorf("retries waited %v, want >= 2 capped Retry-After sleeps", waited)
	}

	// Retries exhausted: the typed error carries the hint.
	calls.Store(-100)
	_, err := cl.Scan(context.Background(), "p", []byte("x"))
	if !errors.Is(err, rapclient.ErrOverLimit) {
		t.Fatalf("exhausted retries: %v, want ErrOverLimit", err)
	}
	if ra, ok := rapclient.RetryAfterOf(err); !ok || ra != time.Second {
		t.Errorf("RetryAfterOf = %v %v, want 1s true", ra, ok)
	}
}

// TestContextCancel: a canceled context aborts the retry sleep.
func TestContextCancel(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer stub.Close()
	cl := rapclient.New(stub.URL, rapclient.WithRetries(5), rapclient.WithMaxWait(time.Minute))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Scan(ctx, "p", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the retry sleep")
	}
}

// TestTenantScoping: WithTenant (option and per-call copy) stamps the
// identity header the server's QoS layer reads.
func TestTenantScoping(t *testing.T) {
	var seen atomic.Value
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get("X-RAP-Tenant"))
		w.Write([]byte(`{"count":0,"matches":[]}`))
	}))
	defer stub.Close()
	cl := rapclient.New(stub.URL, rapclient.WithTenant("base"))
	if _, err := cl.Scan(context.Background(), "p", nil); err != nil {
		t.Fatal(err)
	}
	if got := seen.Load(); got != "base" {
		t.Errorf("tenant = %v, want base", got)
	}
	if _, err := cl.WithTenant("override").Scan(context.Background(), "p", nil); err != nil {
		t.Fatal(err)
	}
	if got := seen.Load(); got != "override" {
		t.Errorf("tenant = %v, want override", got)
	}
	// The copy must not mutate the original.
	if _, err := cl.Scan(context.Background(), "p", nil); err != nil {
		t.Fatal(err)
	}
	if got := seen.Load(); got != "base" {
		t.Errorf("tenant after copy = %v, want base", got)
	}
}
