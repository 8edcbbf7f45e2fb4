package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/qos"
	"repro/internal/slo"
)

// tightSLO is an SLO config whose tenant queue-wait objective breaches
// after a handful of bad observations: 90% target under 1ms, 2s fast
// window at burn 2 (so >20% bad in-window trips the fast alert).
func tightSLO() slo.Config {
	return slo.Config{
		Objectives: map[string]slo.Objective{
			slo.ObjectiveTenantQueueWait: {
				Kind:        slo.KindLatency,
				Target:      0.9,
				ThresholdUS: 1000,
				PerTenant:   true,
				Fast:        slo.WindowSpec{Duration: slo.Duration(2 * time.Second), Burn: 2},
				Slow:        slo.WindowSpec{Duration: slo.Duration(20 * time.Second), Burn: 1},
			},
		},
	}
}

func TestHealthEndpoints(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var snap slo.HealthSnapshot
	resp := doJSON(t, srv.Client(), "GET", srv.URL+"/v1/health", nil, &snap)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/health status %d", resp.StatusCode)
	}
	if snap.Status != slo.HealthOK {
		t.Errorf("idle service health = %q, want %q", snap.Status, slo.HealthOK)
	}
	want := map[string]bool{"slo": false, "worker_pool": false, "program_cache": false, "reconfig": false}
	for _, c := range snap.Components {
		if _, ok := want[c.Name]; ok {
			want[c.Name] = true
		}
		if c.Score < 0 || c.Score > 1 {
			t.Errorf("component %s score %v out of [0,1]", c.Name, c.Score)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("/v1/health missing component %q", name)
		}
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
		if err := svc.pool.submitTask(1, ten, 1, false, run); err != nil {
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
		var pool slo.Component
		for _, c := range svc.Health().Snapshot().Components {
			if c.Name == "worker_pool" {
				pool = c
			}
		}
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
	check(slo.HealthDegraded, http.StatusOK)
	for i := 0; i < 4; i++ {
		submit(victim, func() { <-gate })
	}
	check(slo.HealthCritical, http.StatusServiceUnavailable)
}

func TestStatsSLOBlockAndDebugEndpoint(t *testing.T) {
	svc := New(Config{Workers: 1, SLO: tightSLO()})
	defer svc.Close()

	st := svc.Stats()
	names := map[string]bool{}
	for _, o := range st.SLO.Objectives {
		names[o.Name] = true
	}
	for _, want := range []string{slo.ObjectiveRequestLatency, slo.ObjectiveErrorRate, slo.ObjectiveTenantQueueWait} {
		if !names[want] {
			t.Errorf("stats SLO block missing objective %q (have %v)", want, names)
		}
	}
	if st.Health.Status == "" {
		t.Error("stats health snapshot empty")
	}

	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	var dbg map[string]json.RawMessage
	resp := doJSON(t, srv.Client(), "GET", srv.URL+"/debug/slo", nil, &dbg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slo status %d", resp.StatusCode)
	}
	for _, key := range []string{"objectives", "breaches_total", "breaches"} {
		if _, ok := dbg[key]; !ok {
			t.Errorf("/debug/slo has no %q", key)
		}
	}
	if _, ok := dbg["admission"]; ok {
		t.Error("/debug/slo still serves an admission block")
	}
	if string(dbg["breaches"]) != "[]" {
		t.Errorf("debug breaches = %s, want []", dbg["breaches"])
	}
}

// TestSLOBreachLoopEndToEnd: the service's evaluation loop runs on its
// clock, so a breaching tenant queue-wait objective reaches /debug/slo,
// with the tenant and linked traces, after one one-second Advance of a
// manual clock and no direct Evaluate call.
func TestSLOBreachLoopEndToEnd(t *testing.T) {
	clk := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	svc := New(Config{Workers: 2, Clock: clk, SLO: tightSLO()})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Put a trace in the ring for the breach to link.
	body, _ := json.Marshal(Ruleset{Patterns: []string{"needle"}})
	req, _ := http.NewRequest("POST", srv.URL+"/v1/programs", strings.NewReader(string(body)))
	req.Header.Set(qos.DefaultHeader, "heavy")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// 40 bad queue waits against a 90% / 1ms objective.
	for i := 0; i < 40; i++ {
		svc.SLO().ObserveTenantLatency(slo.ObjectiveTenantQueueWait, "heavy", 50*time.Millisecond)
	}
	var dbg struct {
		Breaches []slo.BreachEvent `json:"breaches"`
	}
	breach := func() *slo.BreachEvent {
		doJSON(t, srv.Client(), "GET", srv.URL+"/debug/slo", nil, &dbg)
		for i := range dbg.Breaches {
			if dbg.Breaches[i].Objective == slo.ObjectiveTenantQueueWait && dbg.Breaches[i].Tenant == "heavy" {
				return &dbg.Breaches[i]
			}
		}
		return nil
	}
	if b := breach(); b != nil {
		t.Fatalf("breach logged before the loop ran: %+v", b)
	}
	clk.Advance(slo.EvaluateEvery)
	b := breach()
	if b == nil {
		t.Fatalf("no tenant_queue_wait breach for heavy after one round: %+v", dbg.Breaches)
	}
	if len(b.Traces) == 0 {
		t.Error("breach carries no linked trace IDs")
	}
}
