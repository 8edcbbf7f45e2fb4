package slo

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Objective states, ordered by severity. fast_burn means the short
// window alone exceeds its burn limit (the early warning); breach means
// both windows do (the page-worthy state).
const (
	StateOK       = "ok"
	StateFastBurn = "fast_burn"
	StateBreach   = "breach"
)

// stateRank orders states for escalation detection.
func stateRank(s string) int {
	switch s {
	case StateBreach:
		return 2
	case StateFastBurn:
		return 1
	default:
		return 0
	}
}

// maxRingBuckets bounds tracker memory: the bucket width widens until
// the whole slow window (plus one spare bucket) fits in this many slots.
const maxRingBuckets = 720

// slotCounts is one time bucket's good/bad tally.
type slotCounts struct {
	good int64
	bad  int64
}

// tracker is the rolling good/bad ring for one (objective, tenant) pair.
// Buckets are aligned to wall-clock multiples of bucketD, so window sums
// are deterministic given the observation times.
type tracker struct {
	obj Objective

	mu      sync.Mutex
	bucketD time.Duration
	buckets []slotCounts
	head    int       // index of the bucket holding headT
	headT   time.Time // aligned start time of the head bucket
	state   string
}

func newTracker(obj Objective) *tracker {
	fast := obj.Fast.Duration.Std()
	slow := obj.Slow.Duration.Std()
	bucketD := fast / 6
	if bucketD < time.Millisecond {
		bucketD = time.Millisecond
	}
	// Widen buckets until the slow window (+1 spare for the partial head
	// bucket) fits under the ring cap.
	for int(slow/bucketD)+1 > maxRingBuckets {
		bucketD *= 2
	}
	n := int(slow/bucketD) + 1
	if n < 2 {
		n = 2
	}
	return &tracker{
		obj:     obj,
		bucketD: bucketD,
		buckets: make([]slotCounts, n),
		state:   StateOK,
	}
}

// advance moves the head bucket forward to cover now, clearing any
// buckets skipped over. Caller holds t.mu.
func (t *tracker) advance(now time.Time) {
	aligned := now.Truncate(t.bucketD)
	if t.headT.IsZero() {
		t.headT = aligned
		return
	}
	steps := int(aligned.Sub(t.headT) / t.bucketD)
	if steps <= 0 {
		return
	}
	if steps >= len(t.buckets) {
		for i := range t.buckets {
			t.buckets[i] = slotCounts{}
		}
		t.head = 0
		t.headT = aligned
		return
	}
	for i := 0; i < steps; i++ {
		t.head = (t.head + 1) % len(t.buckets)
		t.buckets[t.head] = slotCounts{}
	}
	t.headT = aligned
}

// observe counts one event at now.
func (t *tracker) observe(now time.Time, good bool) {
	t.mu.Lock()
	t.advance(now)
	if good {
		t.buckets[t.head].good++
	} else {
		t.buckets[t.head].bad++
	}
	t.mu.Unlock()
}

// burnLocked returns the burn rate over window w ending at the head
// bucket: (bad/total) / (1 - target). Zero when the window saw no
// events. Caller holds t.mu and has advanced to now.
func (t *tracker) burnLocked(w time.Duration) float64 {
	k := int(w / t.bucketD)
	if k < 1 {
		k = 1
	}
	if k > len(t.buckets) {
		k = len(t.buckets)
	}
	var good, bad int64
	for i := 0; i < k; i++ {
		s := t.buckets[(t.head-i+len(t.buckets))%len(t.buckets)]
		good += s.good
		bad += s.bad
	}
	total := good + bad
	if total == 0 || bad == 0 {
		return 0
	}
	budget := 1 - t.obj.Target
	if budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}

// status evaluates both windows at now. When commit is true the new
// state is written back (Evaluate detecting escalations); read paths
// (Statuses, health probes) pass false so they never consume a pending
// ok→breach transition before the evaluator sees it.
func (t *tracker) status(now time.Time, commit bool) (fastBurn, slowBurn float64, state, prev string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(now)
	fastBurn = t.burnLocked(t.obj.Fast.Duration.Std())
	slowBurn = t.burnLocked(t.obj.Slow.Duration.Std())
	prev = t.state
	switch {
	case fastBurn >= t.obj.Fast.Burn && slowBurn >= t.obj.Slow.Burn:
		state = StateBreach
	case fastBurn >= t.obj.Fast.Burn:
		state = StateFastBurn
	default:
		state = StateOK
	}
	if commit {
		t.state = state
	}
	return fastBurn, slowBurn, state, prev
}

// ObjectiveStatus is the externally visible evaluation of one objective
// (or one tenant of a per-tenant objective) at a point in time.
type ObjectiveStatus struct {
	Name        string  `json:"name"`
	Tenant      string  `json:"tenant,omitempty"`
	Kind        string  `json:"kind"`
	Target      float64 `json:"target"`
	ThresholdUS int64   `json:"threshold_us,omitempty"`
	FastBurn    float64 `json:"fast_burn"`
	FastLimit   float64 `json:"fast_limit"`
	SlowBurn    float64 `json:"slow_burn"`
	SlowLimit   float64 `json:"slow_limit"`
	State       string  `json:"state"`
}

// BreachEvent is one state escalation (ok→fast_burn, ok→breach, or
// fast_burn→breach) with the slow-trace ring snapshotted at breach time,
// so /debug/slo links the violation to the requests that caused it.
type BreachEvent struct {
	Time      time.Time               `json:"time"`
	Objective string                  `json:"objective"`
	Tenant    string                  `json:"tenant,omitempty"`
	State     string                  `json:"state"`
	Status    ObjectiveStatus         `json:"status"`
	Traces    []telemetry.TraceRecord `json:"traces,omitempty"`
}

// breachRingCap bounds the retained breach log.
const breachRingCap = 64

// breachTraceCap bounds how many traces one breach event snapshots.
const breachTraceCap = 8

// Engine owns the trackers for every configured objective and the
// breach log. All Observe* methods are nil-safe and cheap enough for
// the per-request path; Evaluate runs once per EvaluateEvery on the
// loop Start begins.
type Engine struct {
	clock clock.Clock

	mu        sync.Mutex
	cfg       Config // resolved
	trackers  map[string]*tracker
	tenants   map[string]map[string]*tracker // objective → tenant → tracker
	traceSrc  func() []telemetry.TraceRecord
	breaches  []BreachEvent
	breachTot metrics.Counter
}

// NewEngine builds an engine from cfg (merged over DefaultConfig) on clk.
func NewEngine(cfg Config, clk clock.Clock) *Engine {
	e := &Engine{
		clock:    clk,
		trackers: map[string]*tracker{},
		tenants:  map[string]map[string]*tracker{},
	}
	e.setConfigLocked(cfg)
	return e
}

// setConfigLocked installs cfg, keeping trackers whose objective spec is
// unchanged so a reload doesn't zero live windows. Caller must not hold
// e.mu (NewEngine calls it before the engine escapes).
func (e *Engine) setConfigLocked(cfg Config) {
	e.mu.Lock()
	defer e.mu.Unlock()
	resolved := cfg.resolved()
	trackers := make(map[string]*tracker, len(resolved.Objectives))
	tenants := make(map[string]map[string]*tracker)
	for name, obj := range resolved.Objectives {
		if old, ok := e.trackers[name]; ok && old.obj == obj {
			trackers[name] = old
			if m, ok := e.tenants[name]; ok {
				tenants[name] = m
			}
			continue
		}
		trackers[name] = newTracker(obj)
	}
	e.cfg = resolved
	e.trackers = trackers
	e.tenants = tenants
}

// SetConfig swaps in a new configuration (SIGHUP reload). Objectives
// whose spec is unchanged keep their rolling windows.
func (e *Engine) SetConfig(cfg Config) {
	if e == nil {
		return
	}
	e.setConfigLocked(cfg)
}

// Config returns the resolved configuration in effect.
func (e *Engine) Config() Config {
	if e == nil {
		return DefaultConfig().resolved()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg
}

// SetTraceSource registers the slow-trace ring snapshot function used to
// attach traces to breach events (typically telemetry.Tracer.Traces).
func (e *Engine) SetTraceSource(fn func() []telemetry.TraceRecord) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.traceSrc = fn
	e.mu.Unlock()
}

// lookup returns the aggregate tracker for name, or nil if the objective
// is not configured.
func (e *Engine) lookup(name string) *tracker {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.trackers[name]
}

// tenantTracker returns (creating on first use) the per-tenant tracker
// for a per-tenant objective, or nil when the objective is not
// configured per-tenant.
func (e *Engine) tenantTracker(name, tenant string) *tracker {
	e.mu.Lock()
	defer e.mu.Unlock()
	base, ok := e.trackers[name]
	if !ok || !base.obj.PerTenant {
		return nil
	}
	m := e.tenants[name]
	if m == nil {
		m = map[string]*tracker{}
		e.tenants[name] = m
	}
	t, ok := m[tenant]
	if !ok {
		t = newTracker(base.obj)
		m[tenant] = t
	}
	return t
}

// Observe counts one good/bad event against a ratio objective (or the
// aggregate of any objective). Unknown names are ignored.
func (e *Engine) Observe(name string, good bool) {
	if e == nil {
		return
	}
	if t := e.lookup(name); t != nil {
		t.observe(e.clock.Now(), good)
	}
}

// ObserveLatency classifies d against the objective's threshold and
// counts it. No-op for unknown names.
func (e *Engine) ObserveLatency(name string, d time.Duration) {
	if e == nil {
		return
	}
	t := e.lookup(name)
	if t == nil {
		return
	}
	t.observe(e.clock.Now(), d.Microseconds() <= t.obj.ThresholdUS)
}

// ObserveTenantLatency records d against both the aggregate tracker and
// the tenant's own tracker of a per-tenant latency objective.
func (e *Engine) ObserveTenantLatency(name, tenant string, d time.Duration) {
	if e == nil {
		return
	}
	t := e.lookup(name)
	if t == nil {
		return
	}
	now := e.clock.Now()
	good := d.Microseconds() <= t.obj.ThresholdUS
	t.observe(now, good)
	if tenant != "" {
		if tt := e.tenantTracker(name, tenant); tt != nil {
			tt.observe(now, good)
		}
	}
}

func statusOf(name, tenant string, t *tracker, now time.Time, commit bool) (ObjectiveStatus, string) {
	fast, slow, state, prev := t.status(now, commit)
	return ObjectiveStatus{
		Name:        name,
		Tenant:      tenant,
		Kind:        t.obj.Kind,
		Target:      t.obj.Target,
		ThresholdUS: t.obj.ThresholdUS,
		FastBurn:    fast,
		FastLimit:   t.obj.Fast.Burn,
		SlowBurn:    slow,
		SlowLimit:   t.obj.Slow.Burn,
		State:       state,
	}, prev
}

// entry is one tracker with the objective and tenant it counts for.
type entry struct {
	name, tenant string
	t            *tracker
}

// entries copies every tracker, the aggregates and then the per-tenant
// ones, out from under the lock.
func (e *Engine) entries() []entry {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]entry, 0, len(e.trackers))
	for name, t := range e.trackers {
		out = append(out, entry{name: name, t: t})
	}
	for name, m := range e.tenants {
		for tenant, t := range m {
			out = append(out, entry{name: name, tenant: tenant, t: t})
		}
	}
	return out
}

// Statuses evaluates every tracker (aggregate first, then per-tenant
// entries), sorted by objective name then tenant for stable output.
func (e *Engine) Statuses() []ObjectiveStatus {
	if e == nil {
		return nil
	}
	now := e.clock.Now()
	entries := e.entries()
	out := make([]ObjectiveStatus, 0, len(entries))
	for _, en := range entries {
		st, _ := statusOf(en.name, en.tenant, en.t, now, false)
		out = append(out, st)
	}
	slices.SortFunc(out, func(a, b ObjectiveStatus) int {
		return cmp.Or(cmp.Compare(a.Name, b.Name), cmp.Compare(a.Tenant, b.Tenant))
	})
	return out
}

// EvaluateEvery is the cadence of the loop Start runs: an escalation
// reaches the breach log, /debug/slo and rap_slo_breaches_total within
// one period.
const EvaluateEvery = time.Second

// Start runs Evaluate on the engine's clock every EvaluateEvery until
// stop, which is idempotent.
func (e *Engine) Start() (stop func()) {
	return e.clock.Every(EvaluateEvery, func() { e.Evaluate() })
}

// Evaluate walks every tracker, records state escalations into the
// breach log (snapshotting the slow-trace ring) and returns the new
// events.
func (e *Engine) Evaluate() []BreachEvent {
	if e == nil {
		return nil
	}
	now := e.clock.Now()
	entries := e.entries()
	e.mu.Lock()
	traceSrc := e.traceSrc
	e.mu.Unlock()

	var events []BreachEvent
	for _, en := range entries {
		st, prev := statusOf(en.name, en.tenant, en.t, now, true)
		if stateRank(st.State) <= stateRank(prev) {
			continue
		}
		ev := BreachEvent{
			Time:      now,
			Objective: en.name,
			Tenant:    en.tenant,
			State:     st.State,
			Status:    st,
		}
		if traceSrc != nil {
			traces := traceSrc()
			if len(traces) > breachTraceCap {
				traces = traces[:breachTraceCap]
			}
			ev.Traces = traces
		}
		events = append(events, ev)
	}
	if len(events) > 0 {
		e.mu.Lock()
		e.breaches = append(e.breaches, events...)
		if n := len(e.breaches) - breachRingCap; n > 0 {
			e.breaches = append([]BreachEvent(nil), e.breaches[n:]...)
		}
		e.mu.Unlock()
		e.breachTot.Add(int64(len(events)))
	}
	return events
}

// Breaches returns the retained breach log, oldest first.
func (e *Engine) Breaches() []BreachEvent {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]BreachEvent(nil), e.breaches...)
}

// BreachCounter exposes the total escalations counter for metric
// registration (rap_slo_breaches_total).
func (e *Engine) BreachCounter() *metrics.Counter {
	if e == nil {
		return nil
	}
	return &e.breachTot
}

// HealthProbe returns a health probe scoring the SLO subsystem: the
// worst fast-burn ratio r (burn / limit) across aggregate objectives
// maps to score 1 - r/2 clamped to [0,1] — ratio 0 is perfect health,
// ratio 1 (at the limit) is 0.5, ratio ≥ 2 is 0.
func (e *Engine) HealthProbe() Probe {
	return func() Component {
		if e == nil {
			return ScoreComponent("slo", 1, nil)
		}
		now := e.clock.Now()
		worst := 0.0
		detail := map[string]float64{}
		for _, en := range e.entries() {
			if en.tenant != "" {
				continue
			}
			st, _ := statusOf(en.name, "", en.t, now, false)
			ratio := 0.0
			if st.FastLimit > 0 {
				ratio = st.FastBurn / st.FastLimit
			}
			detail[en.name] = ratio
			if ratio > worst {
				worst = ratio
			}
		}
		return ScoreComponent("slo", 1-worst/2, detail)
	}
}
