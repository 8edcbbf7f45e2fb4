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
		{"unknown admission objective", Config{Admission: AdmissionConfig{Enabled: true, Objective: "nope"}}, "admission objective"},
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
	if r.Admission.Tick.Std() != time.Second || r.Admission.Objective != ObjectiveTenantQueueWait {
		t.Fatalf("admission defaults not inherited: %+v", r.Admission)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slo.json")
	good := `{"objectives":{"request_latency":{"kind":"latency","target":0.95,"threshold_us":100000,
		"fast":{"duration":"1m","burn":4},"slow":{"duration":"10m","burn":2}}},
		"admission":{"enabled":true,"objective":"tenant_queue_wait","tick":"500ms"}}`
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
	if err := os.WriteFile(path, []byte(`{"objctives":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("unknown field accepted")
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

func TestBurnMath(t *testing.T) {
	e, clk := testEngine(t)
	// 50% bad over a 10% budget → burn 5 in both windows.
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 500*time.Microsecond) // good
		e.ObserveLatency("lat", 5*time.Millisecond)   // bad
	}
	st, ok := e.Status("lat")
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
	st, _ = e.Status("lat")
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
	st, _ = e.Status("lat")
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
	st, ok := e.Status("lat")
	if !ok || st.FastBurn == 0 {
		t.Fatalf("reload zeroed unchanged tracker: ok=%v burn=%g", ok, st.FastBurn)
	}
	if _, ok := e.Status("extra"); !ok {
		t.Fatal("new objective missing after reload")
	}
	// Changing the spec resets the tracker.
	obj := cfg.Objectives["lat"]
	obj.ThresholdUS = 2000
	cfg.Objectives["lat"] = obj
	e.SetConfig(cfg)
	st, _ = e.Status("lat")
	if st.FastBurn != 0 {
		t.Fatalf("changed spec kept old window: burn=%g", st.FastBurn)
	}
}

type fakeShedder struct{ levels []float64 }

func (f *fakeShedder) ApplyShed(level float64) { f.levels = append(f.levels, level) }

func TestControllerTightensAndRelaxes(t *testing.T) {
	e, clk := testEngine(t)
	cfg := e.Config()
	cfg.Admission = AdmissionConfig{Enabled: true, Objective: "lat", Tick: Duration(time.Second), MaxLevel: 0.95, RelaxBelow: 0.5}
	e.SetConfig(cfg)
	sh := &fakeShedder{}
	c := NewController(e, sh)

	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 5*time.Millisecond) // burn 10 ≥ limit 2
	}
	c.Tick()
	if c.Level() < 0.09 {
		t.Fatalf("level after first tighten: %g", c.Level())
	}
	c.Tick()
	c.Tick()
	lvl := c.Level()
	if lvl <= 0.1 || lvl > 0.95 {
		t.Fatalf("level after repeated tighten: %g", lvl)
	}
	tight, relax := c.Counters()
	if tight.Value() < 3 {
		t.Fatalf("tightened counter: %d", tight.Value())
	}
	// Burn subsides: level decays to zero.
	clk.Advance(5 * time.Minute)
	for i := 0; i < 20 && c.Level() > 0; i++ {
		c.Tick()
	}
	if c.Level() != 0 {
		t.Fatalf("level did not relax to 0: %g", c.Level())
	}
	if relax.Value() == 0 {
		t.Fatal("relaxed counter never incremented")
	}
	if len(sh.levels) == 0 || sh.levels[len(sh.levels)-1] != 0 {
		t.Fatalf("shedder not restored to 0: %v", sh.levels)
	}
	// Disabling admission drops the level immediately.
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 5*time.Millisecond)
	}
	c.Tick()
	if c.Level() == 0 {
		t.Fatal("expected tighten before disable")
	}
	cfg.Admission.Enabled = false
	e.SetConfig(cfg)
	c.Tick()
	if c.Level() != 0 {
		t.Fatalf("disable did not clear level: %g", c.Level())
	}
}

// TestAdmissionTickReload: the admission loop reads Admission.Tick again
// when a wait ends, so a SIGHUP reload of the cadence takes effect
// without a restart. Rounds are counted through the shedder, which the
// controller calls every round while the objective burns.
func TestAdmissionTickReload(t *testing.T) {
	e, clk := testEngine(t)
	cfg := e.Config()
	cfg.Admission = AdmissionConfig{Enabled: true, Objective: "lat", Tick: Duration(time.Second), MaxLevel: 0.95, RelaxBelow: 0.5}
	e.SetConfig(cfg)
	for i := 0; i < 10; i++ {
		e.ObserveLatency("lat", 5*time.Millisecond) // burns through the 6 s fast window
	}
	sh := &fakeShedder{}
	c := NewController(e, sh)
	stop := c.Start()
	defer stop()
	rounds := func(d time.Duration, want int) {
		t.Helper()
		before := len(sh.levels)
		clk.Advance(d)
		if got := len(sh.levels) - before; got != want {
			t.Fatalf("Advance(%v) with tick %v ran %d rounds, want %d", d, e.Config().Admission.Tick.Std(), got, want)
		}
	}
	rounds(time.Second, 1)
	cfg.Admission.Tick = Duration(3 * time.Second)
	e.SetConfig(cfg)
	rounds(2*time.Second, 0)
	rounds(time.Second, 1)
}

func TestControllerStartStop(t *testing.T) {
	e, _ := testEngine(t)
	stop := NewController(e, nil).Start()
	stop()
	stop() // idempotent
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
	c := NewController(e, nil)
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
	c.Tick()
	rec = httptest.NewRecorder()
	DebugHandler(e, c).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
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
