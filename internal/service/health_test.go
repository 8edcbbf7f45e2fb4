package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/qos"
)

func TestHealthEndpoints(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var snap HealthSnapshot
	resp := doJSON(t, srv.Client(), "GET", srv.URL+"/v1/health", nil, &snap)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/health status %d", resp.StatusCode)
	}
	if snap.Status != HealthOK {
		t.Errorf("idle service health = %q, want %q", snap.Status, HealthOK)
	}
	var names []string
	for _, c := range snap.Components {
		names = append(names, c.Name)
		if c.Score < 0 || c.Score > 1 {
			t.Errorf("component %s score %v out of [0,1]", c.Name, c.Score)
		}
	}
	if got, want := strings.Join(names, " "), "worker_pool program_cache reconfig"; got != want {
		t.Errorf("/v1/health components %q, want %q", got, want)
	}

	for _, path := range []string{"/readyz", "/healthz"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestHealthScoreIsMinimumComponent: a component's score is clamped to
// [0,1] and mapped to ok from 0.8 and degraded from 0.35; the node's
// score is the minimum of its components', and its state that score's.
func TestHealthScoreIsMinimumComponent(t *testing.T) {
	for _, c := range []struct {
		score, want float64
		state       string
	}{
		{2, 1, HealthOK}, {0.8, 0.8, HealthOK}, {0.79, 0.79, HealthDegraded},
		{0.35, 0.35, HealthDegraded}, {0.34, 0.34, HealthCritical}, {-1, 0, HealthCritical},
	} {
		if got := component("x", c.score, nil); got.Score != c.want || got.State != c.state {
			t.Errorf("component(%v) = %v %s, want %v %s", c.score, got.Score, got.State, c.want, c.state)
		}
	}
	svc := New(Config{Workers: 1, ProgramCacheSize: 1})
	defer svc.Close()
	if _, _, err := svc.Compile(context.Background(), []string{"needle"}, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	snap := svc.Health()
	lowest := snap.Components[0]
	for _, c := range snap.Components {
		if c.Score < lowest.Score {
			lowest = c
		}
	}
	if lowest.Name != "program_cache" || snap.Score != lowest.Score || snap.Status != HealthDegraded {
		t.Errorf("health %v %s, lowest component %s %v; want the full one-slot cache's 0.5, degraded", snap.Score, snap.Status, lowest.Name, lowest.Score)
	}
}

// TestMonitorHandlerServesHandlersRoutes: the monitoring listener
// (rapserve -health-addr) and the request port answer /healthz, /readyz
// and /v1/health with the same status, headers and bytes, and both
// serve /metrics; the monitoring listener serves nothing else.
func TestMonitorHandlerServesHandlersRoutes(t *testing.T) {
	svc := New(Config{Workers: 1, Clock: clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))})
	defer svc.Close()
	api, mon := svc.Handler(), svc.MonitorHandler()
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	for _, path := range []string{"/healthz", "/readyz", "/v1/health"} {
		a, m := get(api, path), get(mon, path)
		if a.Code != http.StatusOK || a.Code != m.Code || a.Body.String() != m.Body.String() {
			t.Errorf("%s: request port %d %q, monitor port %d %q", path, a.Code, a.Body, m.Code, m.Body)
		}
		for _, h := range []string{"Content-Type", "Content-Length", "Cache-Control"} {
			if a.Header().Get(h) != m.Header().Get(h) || a.Header().Get(h) == "" {
				t.Errorf("%s %s: request port %q, monitor port %q", path, h, a.Header().Get(h), m.Header().Get(h))
			}
		}
	}
	if rec := get(mon, "/metrics"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "rap_health_score") {
		t.Errorf("monitor /metrics: %d", rec.Code)
	}
	if rec := get(mon, "/v1/stats"); rec.Code != http.StatusNotFound {
		t.Errorf("monitor /v1/stats: %d, want 404", rec.Code)
	}
}

// TestRequestCounters: every finished API request is counted, a 5xx
// answer and one slower than 250 ms each in their own counter too, in
// the /v1/stats requests block and on /metrics alike. A 404 is not an
// error, stats reads are not traffic, and /debug/slo is gone.
func TestRequestCounters(t *testing.T) {
	svc := New(Config{Workers: 1})
	h := svc.Handler()
	do := func(method, path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code
	}
	svc.compileHook = func() { time.Sleep(slowRequest + 50*time.Millisecond) }
	if code := do("POST", "/v1/programs", `{"patterns":["needle"]}`); code != http.StatusOK {
		t.Fatalf("compile: %d", code)
	}
	id := svc.cache.snapshot()[0].ID
	if code := do("POST", "/v1/programs/"+id+"/scan", "hay needle"); code != http.StatusOK {
		t.Fatalf("scan: %d", code)
	}
	if code := do("POST", "/v1/programs/nope/scan", "hay"); code != http.StatusNotFound {
		t.Fatalf("unknown program: %d", code)
	}
	do("GET", "/v1/stats", "")
	do("GET", "/stats", "")
	svc.Close()
	if code := do("POST", "/v1/programs/"+id+"/scan", "hay"); code != http.StatusServiceUnavailable {
		t.Fatalf("scan on a closed service: %d", code)
	}

	want := RequestStats{Total: 4, Errors: 1, Slow: 1}
	if got := svc.Stats().Requests; got != want {
		t.Errorf("stats requests %+v, want %+v", got, want)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for name, v := range map[string]string{"rap_requests_total": "4", "rap_requests_5xx_total": "1", "rap_requests_slow_total": "1"} {
		if !regexp.MustCompile(`(?m)^` + name + ` ` + v + `$`).MatchString(rec.Body.String()) {
			t.Errorf("/metrics has no %q", name+" "+v)
		}
	}
	if code := do("GET", "/debug/slo", ""); code != http.StatusNotFound {
		t.Errorf("/debug/slo: %d, want 404", code)
	}
}

// TestPoolHealthCountsEveryTenantQueue: worker-pool saturation is the
// queued tasks over the slots of every tenant queue that exists. A noisy
// tenant that fills its own queue beside an idle victim queue leaves the
// node degraded and ready, since the victim is still served; every queue
// full is critical and /readyz drains the node.
func TestPoolHealthCountsEveryTenantQueue(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4})
	defer svc.Close()
	h := svc.Handler()
	noisy, victim := svc.QoS().Tenant("noisy"), svc.QoS().Tenant("victim")
	submit := func(ten *qos.Tenant, run func()) {
		t.Helper()
		if err := svc.pool.submitTask(1, ten, 1, noCharge, whole, run); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	submit(victim, func() { close(done) }) // the victim's queue exists, and empties
	<-done
	gate, running := make(chan struct{}), make(chan struct{})
	defer close(gate)
	submit(noisy, func() { close(running); <-gate })
	<-running
	check := func(wantState string, wantReady int) {
		t.Helper()
		pool := svc.poolHealth()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		if pool.State != wantState || rec.Code != wantReady {
			t.Errorf("worker_pool %s (score %.2f, %v), /readyz %d; want %s, %d",
				pool.State, pool.Score, pool.Detail, rec.Code, wantState, wantReady)
		}
	}
	for i := 0; i < 4; i++ {
		submit(noisy, func() { <-gate })
	}
	check(HealthDegraded, http.StatusOK)
	for i := 0; i < 4; i++ {
		submit(victim, func() { <-gate })
	}
	check(HealthCritical, http.StatusServiceUnavailable)
}
