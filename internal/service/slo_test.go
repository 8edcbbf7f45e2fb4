package service

import (
	"context"
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
		Admission: slo.AdmissionConfig{Enabled: true},
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

func TestStatsSLOBlockAndDebugEndpoint(t *testing.T) {
	svc := New(Config{Workers: 1, SLO: tightSLO()})
	defer svc.Close()

	st := svc.Stats()
	if !st.SLO.AdmissionEnabled {
		t.Error("stats: admission not marked enabled")
	}
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
	var dbg struct {
		Objectives []slo.ObjectiveStatus `json:"objectives"`
		Admission  struct {
			Enabled   bool    `json:"enabled"`
			Objective string  `json:"objective"`
			Level     float64 `json:"level"`
		} `json:"admission"`
		BreachesTotal int64             `json:"breaches_total"`
		Breaches      []slo.BreachEvent `json:"breaches"`
	}
	resp := doJSON(t, srv.Client(), "GET", srv.URL+"/debug/slo", nil, &dbg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slo status %d", resp.StatusCode)
	}
	if !dbg.Admission.Enabled || dbg.Admission.Objective != slo.ObjectiveTenantQueueWait {
		t.Errorf("debug admission block = %+v", dbg.Admission)
	}
	if dbg.Breaches == nil {
		t.Error("debug breaches is null, want []")
	}
}

// TestSLOShedLoopEndToEnd drives the full control loop: a breaching
// tenant queue-wait objective tightens QoS admission (heaviest tenant
// first), the breach lands in /debug/slo with linked traces, and once
// the burn subsides the controller relaxes back to no shedding. The
// service runs on a manual clock that never advances, so its background
// admission loop cannot tick between the test's Tick and its assertions.
func TestSLOShedLoopEndToEnd(t *testing.T) {
	svc := New(Config{
		Workers: 2,
		Clock:   clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)),
		SLO:     tightSLO(),
		QoS: qos.Config{Tenants: map[string]qos.Limits{
			"heavy": {ScanBytesPerSec: 1 << 20, BurstBytes: 1 << 20},
		}},
	})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Put a trace in the ring and offered bytes on the tenant's meter so
	// the shed weighting has a rate to key on.
	body, _ := json.Marshal(Ruleset{Patterns: []string{"needle"}})
	var comp compileResponse
	req, _ := http.NewRequest("POST", srv.URL+"/v1/programs", strings.NewReader(string(body)))
	req.Header.Set(qos.DefaultHeader, "heavy")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&comp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx := qos.WithTenant(context.Background(), "heavy")
	payload := make([]byte, 64<<10)
	for i := 0; i < 4; i++ {
		if _, err := svc.Scan(ctx, comp.ProgramID, payload); err != nil {
			t.Fatal(err)
		}
	}

	// Force the breach: 40 bad queue waits against a 90% / 1ms objective.
	eng := svc.SLO()
	for i := 0; i < 40; i++ {
		eng.ObserveTenantLatency(slo.ObjectiveTenantQueueWait, "heavy", 50*time.Millisecond)
	}
	ctl := svc.sloCtl
	ctl.Tick()
	if lvl := ctl.Level(); lvl <= 0 {
		t.Fatalf("shed level = %v after breach tick, want > 0", lvl)
	}
	scale := tenantShedScale(t, svc, "heavy")
	if scale >= 1 {
		t.Fatalf("heavy tenant shed scale = %v after tighten, want < 1", scale)
	}

	var dbg struct {
		Breaches []slo.BreachEvent `json:"breaches"`
	}
	doJSON(t, srv.Client(), "GET", srv.URL+"/debug/slo", nil, &dbg)
	var breach *slo.BreachEvent
	for i := range dbg.Breaches {
		if dbg.Breaches[i].Objective == slo.ObjectiveTenantQueueWait {
			breach = &dbg.Breaches[i]
		}
	}
	if breach == nil {
		t.Fatalf("no tenant_queue_wait breach recorded: %+v", dbg.Breaches)
	}
	if breach.Tenant != "heavy" {
		t.Errorf("breach tenant = %q, want heavy", breach.Tenant)
	}
	if len(breach.Traces) == 0 {
		t.Error("breach carries no linked trace IDs")
	}

	// Shed metrics surface on /metrics.
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	mb := rec.Body.String()
	for _, want := range []string{
		"rap_slo_shed_level ",
		"rap_slo_admission_tightened_total ",
		"rap_slo_breaches_total ",
		`rap_tenant_shed_scale{tenant="heavy"} `,
	} {
		if !strings.Contains(mb, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Recovery: flood the objective with good observations so the burn
	// collapses, then tick until the controller fully relaxes.
	for i := 0; i < 4000; i++ {
		eng.ObserveTenantLatency(slo.ObjectiveTenantQueueWait, "heavy", 10*time.Microsecond)
	}
	for i := 0; i < 20 && ctl.Level() > 0; i++ {
		ctl.Tick()
	}
	if lvl := ctl.Level(); lvl != 0 {
		t.Fatalf("shed level = %v after recovery ticks, want 0", lvl)
	}
	if scale := tenantShedScale(t, svc, "heavy"); scale != 1 {
		t.Fatalf("heavy tenant shed scale = %v after recovery, want 1", scale)
	}
}

func tenantShedScale(t *testing.T, svc *Service, name string) float64 {
	t.Helper()
	st := svc.Stats()
	for i := range st.QoS.Tenants {
		if st.QoS.Tenants[i].Name == name {
			return st.QoS.Tenants[i].ShedScale
		}
	}
	t.Fatalf("tenant %q missing from stats", name)
	return 0
}
