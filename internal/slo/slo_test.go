package slo

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"5m"`), &d); err != nil {
		t.Fatal(err)
	}
	if d.Std() != 5*time.Minute {
		t.Fatalf("got %s, want 5m", d.Std())
	}
	if err := json.Unmarshal([]byte(`1500000000`), &d); err != nil {
		t.Fatal(err)
	}
	if d.Std() != 1500*time.Millisecond {
		t.Fatalf("got %s, want 1.5s", d.Std())
	}
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Fatalf("marshal: got %s", b)
	}
	if err := json.Unmarshal([]byte(`"not-a-duration"`), &d); err == nil {
		t.Fatal("expected error for bad duration string")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mk := func(mut func(*Objective)) Config {
		o := DefaultConfig().Objectives[ObjectiveRequestLatency]
		mut(&o)
		return Config{Objectives: map[string]Objective{"x": o}}
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"bad kind", mk(func(o *Objective) { o.Kind = "p99" }), "kind"},
		{"target too high", mk(func(o *Objective) { o.Target = 1 }), "target"},
		{"no threshold", mk(func(o *Objective) { o.ThresholdUS = 0 }), "threshold_us"},
		{"fast > slow", mk(func(o *Objective) { o.Fast.Duration = o.Slow.Duration * 2 }), "fast window"},
		{"zero burn", mk(func(o *Objective) { o.Fast.Burn = 0 }), "burn"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestResolvedMergesAndDisables(t *testing.T) {
	cfg := Config{Objectives: map[string]Objective{
		ObjectiveErrorRate: {Disabled: true},
		"custom": {Kind: KindRatio, Target: 0.9,
			Fast: WindowSpec{Duration: Duration(time.Minute), Burn: 2},
			Slow: WindowSpec{Duration: Duration(10 * time.Minute), Burn: 1}},
	}}
	r := cfg.resolved()
	if _, ok := r.Objectives[ObjectiveErrorRate]; ok {
		t.Fatal("disabled objective survived resolve")
	}
	if _, ok := r.Objectives["custom"]; !ok {
		t.Fatal("custom objective missing after resolve")
	}
	if _, ok := r.Objectives[ObjectiveRequestLatency]; !ok {
		t.Fatal("default objective missing after resolve")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slo.json")
	good := `{"objectives":{"request_latency":{"kind":"latency","target":0.95,"threshold_us":100000,
		"fast":{"duration":"1m","burn":4},"slow":{"duration":"10m","burn":2}}}}`
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Objectives[ObjectiveRequestLatency].ThresholdUS; got != 100000 {
		t.Fatalf("threshold: got %d", got)
	}
	// A typo and a retired block fail the load and name the key: the
	// admission block went with the shed controller, so a config that
	// still asks for shedding is refused, not quietly served without it.
	for _, bad := range []struct{ body, key string }{
		{`{"objctives":{}}`, "objctives"},
		{`{"admission":{"enabled":true,"objective":"tenant_queue_wait"}}`, "admission"},
	} {
		if err := os.WriteFile(path, []byte(bad.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), `"`+bad.key+`"`) {
			t.Errorf("LoadFile(%s) = %v, want an error naming %q", bad.body, err, bad.key)
		}
	}
}

// testEngine builds an engine on a manual clock with a single simple
// latency objective for burn-math tests.
func testEngine(t *testing.T) (*Engine, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	cfg := Config{Objectives: map[string]Objective{
		"lat": {Kind: KindLatency, Target: 0.9, ThresholdUS: 1000, PerTenant: true,
			Fast: WindowSpec{Duration: Duration(6 * time.Second), Burn: 2},
			Slow: WindowSpec{Duration: Duration(60 * time.Second), Burn: 1}},
	}}
	return NewEngine(cfg, clk), clk
}

// status evaluates one aggregate objective the way /v1/stats shows it.
func status(t *testing.T, e *Engine, name string) (ObjectiveStatus, bool) {
	t.Helper()
	for _, st := range e.Statuses() {
		if st.Name == name && st.Tenant == "" {
			return st, true
		}
	}
	return ObjectiveStatus{}, false
}

func TestBurnMath(t *testing.T) {
	e, clk := testEngine(t)
	// 50% bad over a 10% budget → burn 5 in both windows.
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 500*time.Microsecond) // good
		e.ObserveLatency("lat", 5*time.Millisecond)   // bad
	}
	st, ok := status(t, e, "lat")
	if !ok {
		t.Fatal("objective missing")
	}
	if st.FastBurn < 4.9 || st.FastBurn > 5.1 {
		t.Fatalf("fast burn: got %g, want ~5", st.FastBurn)
	}
	if st.State != StateBreach {
		t.Fatalf("state: got %s, want breach", st.State)
	}
	// Advance past the fast window: fast burn decays to 0, slow persists.
	clk.Advance(10 * time.Second)
	st, _ = status(t, e, "lat")
	if st.FastBurn != 0 {
		t.Fatalf("fast burn after window: got %g, want 0", st.FastBurn)
	}
	if st.SlowBurn < 4.9 {
		t.Fatalf("slow burn after 10s: got %g, want ~5", st.SlowBurn)
	}
	if st.State != StateOK {
		t.Fatalf("state after fast decay: got %s (breach needs both windows)", st.State)
	}
	// Advance past the slow window too: everything clears.
	clk.Advance(2 * time.Minute)
	st, _ = status(t, e, "lat")
	if st.FastBurn != 0 || st.SlowBurn != 0 {
		t.Fatalf("burns after full decay: fast=%g slow=%g", st.FastBurn, st.SlowBurn)
	}
}

func TestPerTenantTracking(t *testing.T) {
	e, _ := testEngine(t)
	for i := 0; i < 20; i++ {
		e.ObserveTenantLatency("lat", "heavy", 5*time.Millisecond)   // all bad
		e.ObserveTenantLatency("lat", "light", 100*time.Microsecond) // all good
	}
	sts := e.Statuses()
	byKey := map[string]ObjectiveStatus{}
	for _, st := range sts {
		byKey[st.Name+"/"+st.Tenant] = st
	}
	if st := byKey["lat/heavy"]; st.State != StateBreach {
		t.Fatalf("heavy tenant: got %s, want breach", st.State)
	}
	if st := byKey["lat/light"]; st.State != StateOK {
		t.Fatalf("light tenant: got %s, want ok", st.State)
	}
	// Aggregate sees 50/50 → burn 5 → breach too.
	if st := byKey["lat/"]; st.State != StateBreach {
		t.Fatalf("aggregate: got %s, want breach", st.State)
	}
}

func TestEvaluateRecordsEscalations(t *testing.T) {
	e, clk := testEngine(t)
	e.SetTraceSource(func() []telemetry.TraceRecord {
		return []telemetry.TraceRecord{{TraceID: "deadbeef", Name: "GET /v1/scan"}}
	})
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 5*time.Millisecond)
	}
	events := e.Evaluate()
	if len(events) != 1 {
		t.Fatalf("events: got %d, want 1", len(events))
	}
	ev := events[0]
	if ev.State != StateBreach || ev.Objective != "lat" {
		t.Fatalf("event: %+v", ev)
	}
	if len(ev.Traces) != 1 || ev.Traces[0].TraceID != "deadbeef" {
		t.Fatalf("traces not snapshotted: %+v", ev.Traces)
	}
	// Same state again: no new event.
	if events := e.Evaluate(); len(events) != 0 {
		t.Fatalf("re-evaluate produced %d events, want 0", len(events))
	}
	// Decay to ok, then breach again: a second event.
	clk.Advance(5 * time.Minute)
	e.Evaluate()
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 5*time.Millisecond)
	}
	e.Evaluate()
	if got := e.BreachCounter().Value(); got != 2 {
		t.Fatalf("breach counter: got %d, want 2", got)
	}
	if got := len(e.Breaches()); got != 2 {
		t.Fatalf("breach log: got %d entries, want 2", got)
	}
}

func TestSetConfigKeepsUnchangedTrackers(t *testing.T) {
	e, _ := testEngine(t)
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 5*time.Millisecond)
	}
	cfg := e.Config()
	cfg.Objectives["extra"] = Objective{Kind: KindRatio, Target: 0.99,
		Fast: WindowSpec{Duration: Duration(time.Minute), Burn: 2},
		Slow: WindowSpec{Duration: Duration(10 * time.Minute), Burn: 1}}
	e.SetConfig(cfg)
	st, ok := status(t, e, "lat")
	if !ok || st.FastBurn == 0 {
		t.Fatalf("reload zeroed unchanged tracker: ok=%v burn=%g", ok, st.FastBurn)
	}
	if _, ok := status(t, e, "extra"); !ok {
		t.Fatal("new objective missing after reload")
	}
	// Changing the spec resets the tracker.
	obj := cfg.Objectives["lat"]
	obj.ThresholdUS = 2000
	cfg.Objectives["lat"] = obj
	e.SetConfig(cfg)
	st, _ = status(t, e, "lat")
	if st.FastBurn != 0 {
		t.Fatalf("changed spec kept old window: burn=%g", st.FastBurn)
	}
}

// TestControllerStartStop: the engine's evaluation loop (Engine.Start)
// evaluates on the engine's clock, so one EvaluateEvery of a manual clock
// puts a burning objective's breach in the log with no Evaluate call;
// after stop, which is idempotent, the clock moves without evaluating.
func TestControllerStartStop(t *testing.T) {
	e, clk := testEngine(t)
	stop := e.Start()
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 5*time.Millisecond)
	}
	if n := len(e.Breaches()); n != 0 {
		t.Fatalf("%d breaches before the loop ran", n)
	}
	clk.Advance(EvaluateEvery)
	if b := e.Breaches(); len(b) != 1 || b[0].Objective != "lat" || b[0].State != StateBreach {
		t.Fatalf("breaches after one round: %+v", b)
	}
	stop()
	stop()
	clk.Advance(5 * time.Minute)
	e.Evaluate() // the burn has decayed: the state is ok again
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 5*time.Millisecond)
	}
	clk.Advance(EvaluateEvery) // it burns again, with nobody evaluating
	if n := len(e.Breaches()); n != 1 {
		t.Fatalf("%d breaches after stop, want 1", n)
	}
}

// TestAdmissionTickReload: the running loop evaluates once per
// EvaluateEvery, not before, and reads the configuration afresh on each
// round, so an objective added by SetConfig while it runs is judged on
// the next tick without a restart.
func TestAdmissionTickReload(t *testing.T) {
	e, clk := testEngine(t)
	stop := e.Start()
	defer stop()
	cfg := e.Config()
	cfg.Objectives["lat2"] = cfg.Objectives["lat"]
	e.SetConfig(cfg)
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat2", 5*time.Millisecond)
	}
	clk.Advance(EvaluateEvery - time.Millisecond)
	if n := len(e.Breaches()); n != 0 {
		t.Fatalf("%d breaches before the first tick", n)
	}
	clk.Advance(time.Millisecond)
	if b := e.Breaches(); len(b) != 1 || b[0].Objective != "lat2" || b[0].State != StateBreach {
		t.Fatalf("breaches after the first tick: %+v", b)
	}
}

func TestScorerMinComponent(t *testing.T) {
	s := NewScorer(clock.Real{})
	if snap := s.Snapshot(); snap.Score != 1 || snap.Status != HealthOK {
		t.Fatalf("empty scorer: %+v", snap)
	}
	s.Add(func() Component { return ScoreComponent("a", 0.9, nil) })
	s.Add(func() Component { return ScoreComponent("b", 0.4, map[string]float64{"x": 2}) })
	snap := s.Snapshot()
	if snap.Score != 0.4 || snap.Status != HealthDegraded {
		t.Fatalf("snapshot: %+v", snap)
	}
	s.Add(func() Component { return ScoreComponent("c", -1, nil) })
	snap = s.Snapshot()
	if snap.Score != 0 || snap.Status != HealthCritical {
		t.Fatalf("critical snapshot: %+v", snap)
	}
}

func TestEngineHealthProbe(t *testing.T) {
	e, _ := testEngine(t)
	c := e.HealthProbe()()
	if c.Name != "slo" || c.Score != 1 {
		t.Fatalf("healthy probe: %+v", c)
	}
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 5*time.Millisecond) // burn 10, ratio 5 → score 0
	}
	c = e.HealthProbe()()
	if c.Score != 0 || c.State != HealthCritical {
		t.Fatalf("burning probe: %+v", c)
	}
	if c.Detail["lat"] < 4.9 {
		t.Fatalf("detail ratio: %+v", c.Detail)
	}
}

func TestHTTPHandlers(t *testing.T) {
	e, _ := testEngine(t)
	s := NewScorer(clock.Real{})
	s.Add(e.HealthProbe())

	rec := httptest.NewRecorder()
	HealthHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/health", nil))
	if rec.Code != 200 {
		t.Fatalf("health status: %d", rec.Code)
	}
	var snap HealthSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Status != HealthOK || len(snap.Components) != 1 {
		t.Fatalf("health body: %+v", snap)
	}

	rec = httptest.NewRecorder()
	ReadyHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("readyz status: %d", rec.Code)
	}
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 5*time.Millisecond)
	}
	rec = httptest.NewRecorder()
	ReadyHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("readyz while critical: %d, want 503", rec.Code)
	}

	e.SetTraceSource(func() []telemetry.TraceRecord {
		return []telemetry.TraceRecord{{TraceID: "cafe", Name: "x"}}
	})
	e.Evaluate()
	rec = httptest.NewRecorder()
	DebugHandler(e).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("debug status: %d", rec.Code)
	}
	var dbg struct {
		Objectives  []ObjectiveStatus `json:"objectives"`
		BreachesTot int64             `json:"breaches_total"`
		Breaches    []BreachEvent     `json:"breaches"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Objectives) == 0 || dbg.BreachesTot == 0 || len(dbg.Breaches) == 0 {
		t.Fatalf("debug body: %+v", dbg)
	}
	if dbg.Breaches[0].Traces[0].TraceID != "cafe" {
		t.Fatalf("breach traces: %+v", dbg.Breaches[0])
	}
}
