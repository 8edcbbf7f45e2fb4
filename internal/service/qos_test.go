package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/qos"
)

// TestPoolWeightedFairness prefills two tenants' queues behind a gated
// single worker and checks the DRR schedule serves them 1:4 by weight.
// Tasks cost exactly one quantum, so the expected interleave is exact
// (one a-task then four b-tasks per rotation) and the ±20% window is
// pure slack, not a statistical bet.
func TestPoolWeightedFairness(t *testing.T) {
	reg := qos.NewRegistry(qos.Config{Tenants: map[string]qos.Limits{
		"a": {Weight: 1},
		"b": {Weight: 4},
	}})
	p := newPool(1, 512)
	defer p.close()

	gate := make(chan struct{})
	if err := p.submit(0, func() { <-gate }); err != nil {
		t.Fatal(err)
	}

	const window = 50
	var mu sync.Mutex
	var order []string
	full := make(chan struct{})
	record := func(name string) func() {
		return func() {
			mu.Lock()
			order = append(order, name)
			if len(order) == window {
				close(full)
			}
			mu.Unlock()
		}
	}
	ta, tb := reg.Tenant("a"), reg.Tenant("b")
	for i := 0; i < 100; i++ {
		if err := p.submitTask(1, ta, drrQuantum, noCharge, whole, record("a")); err != nil {
			t.Fatal(err)
		}
		if err := p.submitTask(2, tb, drrQuantum, noCharge, whole, record("b")); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	<-full

	mu.Lock()
	counts := map[string]int{}
	for _, name := range order[:window] {
		counts[name]++
	}
	mu.Unlock()
	ratio := float64(counts["b"]) / float64(counts["a"])
	if ratio < 4*0.8 || ratio > 4*1.2 {
		t.Fatalf("served ratio b:a = %.2f (b=%d, a=%d), want 4.0 within 20%%", ratio, counts["b"], counts["a"])
	}
}

// TestNoisyTenantCannotStarveVictim floods a one-worker service from a
// backlogging tenant and checks a sequential within-limits tenant is
// never rejected: per-tenant queues mean the noisy backlog fills only
// the noisy tenant's own slots.
func TestNoisyTenantCannotStarveVictim(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, QoS: qos.Config{Tenants: map[string]qos.Limits{
		"victim": {Weight: 4},
		"noisy":  {Weight: 1},
	}}})
	defer svc.Close()
	ctx := context.Background()
	prog, _, err := svc.Compile(ctx, []string{"needle"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hay needle hay")

	victimCtx := qos.WithTenant(ctx, "victim")
	noisyCtx := qos.WithTenant(ctx, "noisy")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var unexpected atomic.Value
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := svc.Scan(noisyCtx, prog.ID, data)
				if err != nil && !errors.Is(err, ErrQueueFull) {
					unexpected.Store(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := svc.Scan(victimCtx, prog.ID, data); err != nil {
			t.Errorf("victim scan %d rejected: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := unexpected.Load(); err != nil {
		t.Fatalf("noisy tenant hit a non-backpressure error: %v", err)
	}
}

// TestScanAdmissionRetryAfterHeader drives a rate-limited tenant over
// its byte bucket through the HTTP surface and checks the 429 carries a
// Retry-After computed from the bucket refill time: a drained 16-byte
// bucket at 10 B/s needs 1.6s, rounded up to 2. The service's clock
// stands still, so no refill lands between the two scans.
func TestScanAdmissionRetryAfterHeader(t *testing.T) {
	svc := New(Config{Clock: clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)), QoS: qos.Config{Tenants: map[string]qos.Limits{
		"small": {ScanBytesPerSec: 10, BurstBytes: 16},
	}}})
	defer svc.Close()
	h := svc.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/programs", strings.NewReader(`{"patterns":["needle"]}`)))
	if rec.Code != 200 {
		t.Fatalf("compile: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		ProgramID string `json:"program_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	scan := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/programs/"+resp.ProgramID+"/scan", strings.NewReader(body))
		req.Header.Set(qos.DefaultHeader, "small")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := scan("0123456789abcdef"); rec.Code != 200 {
		t.Fatalf("first scan (burst-sized) should be admitted: %d %s", rec.Code, rec.Body)
	}
	rec2 := scan("0123456789abcdef")
	if rec2.Code != 429 {
		t.Fatalf("second scan should exceed the drained bucket: %d %s", rec2.Code, rec2.Body)
	}
	if got := rec2.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q (16 bytes / 10 B/s rounded up)", got, "2")
	}
}

// TestQueueFullSpendsNoTokens: a scan its tenant's full queue refuses is a
// 429 that leaves the tenant's bucket where it was.
func TestQueueFullSpendsNoTokens(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 2, Clock: clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)),
		QoS: qos.Config{Tenants: map[string]qos.Limits{"t": {ScanBytesPerSec: 10, BurstBytes: 1 << 10}}}})
	defer svc.Close()
	ctx := context.Background()
	prog, _, err := svc.Compile(ctx, []string{"needle"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One task holds the worker, and two scans of the tenant fill its queue.
	gate, started := make(chan struct{}), make(chan struct{})
	if err := svc.pool.submit(0, func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	tctx, data := qos.WithTenant(ctx, "t"), []byte("hay needle hay")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Scan(tctx, prog.ID, data); err != nil {
				t.Error(err)
			}
		}()
	}
	for svc.pool.queued.Value() < 2 {
		time.Sleep(time.Millisecond)
	}
	ten := svc.QoS().Tenant("t")
	level := ten.Snapshot().BucketLevelBytes
	_, err = svc.Scan(tctx, prog.ID, data)
	close(gate)
	wg.Wait()
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("scan past the full queue: %v, want %v", err, ErrQueueFull)
	}
	if got := ten.Snapshot().BucketLevelBytes; got != level {
		t.Errorf("the refused scan moved the bucket from %d to %d bytes", level, got)
	}
}

// TestBackpressureRetryAfterHeader checks the global (non-tenant) 429
// paths carry a Retry-After header too — here the session-cap rejection.
func TestBackpressureRetryAfterHeader(t *testing.T) {
	svc := New(Config{MaxSessions: 1})
	defer svc.Close()
	h := svc.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/programs", strings.NewReader(`{"patterns":["needle"]}`)))
	var resp struct {
		ProgramID string `json:"program_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	open := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions",
			strings.NewReader(`{"program_id":"`+resp.ProgramID+`"}`)))
		return rec
	}
	if rec := open(); rec.Code != 200 {
		t.Fatalf("first session: %d %s", rec.Code, rec.Body)
	}
	rec2 := open()
	if rec2.Code != 429 {
		t.Fatalf("second session should hit the cap: %d %s", rec2.Code, rec2.Body)
	}
	if got := rec2.Header().Get("Retry-After"); got == "" {
		t.Fatal("429 response is missing the Retry-After header")
	}
}

// TestTenantSessionCap checks the per-tenant session budget rejects
// independently of the global cap, and that closing a session returns
// the slot.
func TestTenantSessionCap(t *testing.T) {
	svc := New(Config{QoS: qos.Config{Tenants: map[string]qos.Limits{
		"capped": {MaxSessions: 1},
	}}})
	defer svc.Close()
	ctx := qos.WithTenant(context.Background(), "capped")
	prog, _, err := svc.Compile(ctx, []string{"needle"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.OpenSession(ctx, prog.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenSession(ctx, prog.ID); !errors.Is(err, qos.ErrOverLimit) {
		t.Fatalf("second session: err = %v, want qos.ErrOverLimit", err)
	}
	if _, _, err := svc.CloseSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenSession(ctx, prog.ID); err != nil {
		t.Fatalf("session after close should fit the freed slot: %v", err)
	}
}

// TestStatsQoSBlockAndTenantMetrics checks tenant accounting surfaces on
// both /v1/stats (qos block) and /metrics (rap_tenant_* series).
func TestStatsQoSBlockAndTenantMetrics(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ctx := qos.WithTenant(context.Background(), "gold")
	prog, _, err := svc.Compile(ctx, []string{"needle"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("one needle here")
	if _, err := svc.Scan(ctx, prog.ID, data); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.QoS.Header != qos.DefaultHeader {
		t.Fatalf("stats qos header = %q, want %q", st.QoS.Header, qos.DefaultHeader)
	}
	var gold *qos.TenantSnapshot
	for i := range st.QoS.Tenants {
		if st.QoS.Tenants[i].Name == "gold" {
			gold = &st.QoS.Tenants[i]
		}
	}
	if gold == nil {
		t.Fatalf("tenant gold missing from stats qos block: %+v", st.QoS.Tenants)
	}
	if gold.Scans != 1 || gold.ScanBytes != int64(len(data)) || gold.ScanMatches != 1 {
		t.Fatalf("gold accounting = %d scans / %d bytes / %d matches, want 1 / %d / 1",
			gold.Scans, gold.ScanBytes, gold.ScanMatches, len(data))
	}
	if gold.CacheBytes <= 0 {
		t.Fatalf("gold cache charge = %d, want > 0 (owns one cached program)", gold.CacheBytes)
	}

	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`rap_tenant_scans_total{tenant="gold"} 1`,
		fmt.Sprintf(`rap_tenant_scan_bytes_total{tenant="gold"} %d`, len(data)),
		`rap_tenant_weight{tenant="gold"} 1`,
		`rap_tenant_queue_wait_us_count{tenant="gold"} `,
		`rap_tenant_throttled_total{tenant="gold",resource="scan_bytes"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCompileOptionsValidate checks unknown mode policies are rejected
// before compiling.
func TestCompileOptionsValidate(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	_, _, err := svc.Compile(context.Background(), []string{"x"}, CompileOptions{ModePolicy: "warp"})
	if err == nil || !strings.Contains(err.Error(), "mode_policy") {
		t.Fatalf("err = %v, want unknown mode_policy rejection", err)
	}
}

// TestUnlistedTenantsBounded: the tenant name is a request header, so a
// client sending a new one per request must not grow the tenant table
// or the tenant series on /metrics without bound. Past
// qos.MaxUnlistedTenants unlisted names are served as anonymous; a name
// the configuration lists keeps its own tenant.
func TestUnlistedTenantsBounded(t *testing.T) {
	svc := New(Config{Workers: 1, QoS: qos.Config{Tenants: map[string]qos.Limits{"gold": {Weight: 4}}}})
	defer svc.Close()
	h := svc.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/programs", strings.NewReader(`{"patterns":["needle"]}`)))
	var resp struct {
		ProgramID string `json:"program_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != 200 || err != nil {
		t.Fatalf("compile: %d %s", rec.Code, rec.Body)
	}
	scan := func(tenant string) {
		req := httptest.NewRequest("POST", "/v1/programs/"+resp.ProgramID+"/scan", strings.NewReader("hay needle hay"))
		req.Header.Set(qos.DefaultHeader, tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("scan as %q: %d %s", tenant, rec.Code, rec.Body)
		}
	}
	for i := 0; i < 4*qos.MaxUnlistedTenants; i++ {
		scan(fmt.Sprintf("t%d", i))
	}
	scan("gold")

	const want = qos.MaxUnlistedTenants + 2 // the first unlisted names, anonymous, gold
	tenants := map[string]bool{}
	for _, ten := range svc.QoS().Tenants() {
		tenants[ten.Name()] = true
	}
	if len(tenants) != want || !tenants["gold"] || !tenants[qos.Anonymous] || tenants[fmt.Sprintf("t%d", qos.MaxUnlistedTenants)] {
		t.Errorf("%d tenants (gold %v, anonymous %v), want %d", len(tenants), tenants["gold"], tenants[qos.Anonymous], want)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	labels := map[string]bool{}
	for _, m := range regexp.MustCompile(`tenant="([^"]*)"`).FindAllStringSubmatch(rec.Body.String(), -1) {
		labels[m[1]] = true
	}
	if len(labels) != want {
		t.Errorf("/metrics has %d distinct tenant labels, want %d", len(labels), want)
	}
}

// TestProgramLabelsBounded is the program side of TestUnlistedTenantsBounded:
// /metrics exports per-program series only for the live cache entries, so
// compiling and scanning more programs than the cache holds leaves at most
// ProgramCacheSize distinct program labels, each one a cached program.
func TestProgramLabelsBounded(t *testing.T) {
	svc := New(Config{Workers: 1, ProgramCacheSize: 2})
	defer svc.Close()
	h := svc.Handler()
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/programs", strings.NewReader(fmt.Sprintf(`{"patterns":["needle%d"]}`, i))))
		var resp struct {
			ProgramID string `json:"program_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != 200 || err != nil {
			t.Fatalf("compile %d: %d %s", i, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/programs/"+resp.ProgramID+"/scan", strings.NewReader(fmt.Sprintf("hay needle%d hay", i))))
		if rec.Code != 200 {
			t.Fatalf("scan %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	live := map[string]bool{}
	for _, ps := range svc.cache.snapshot() {
		live[ps.ID] = true
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	labels := map[string]bool{}
	for _, m := range regexp.MustCompile(`program="([^"]*)"`).FindAllStringSubmatch(rec.Body.String(), -1) {
		labels[m[1]] = true
		if !live[m[1]] {
			t.Errorf("/metrics carries program=%q, which is not in the cache", m[1])
		}
	}
	if len(labels) == 0 || len(labels) > 2 {
		t.Errorf("/metrics has %d distinct program labels, want 1-2 with ProgramCacheSize 2", len(labels))
	}
}
