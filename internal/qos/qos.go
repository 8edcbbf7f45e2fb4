package qos

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Resource names used in LimitError, throttle counters and the
// rap_tenant_throttled_total metric's resource label.
const (
	ResourceScanBytes    = "scan_bytes"
	ResourceSessions     = "sessions"
	ResourceCompileSlots = "compile_slots"
)

// resources enumerates every resource, so throttle series exist at 0.
var resources = []string{ResourceScanBytes, ResourceSessions, ResourceCompileSlots}

// ErrOverLimit is the sentinel behind every admission rejection; every
// occurrence is a *LimitError naming the tenant, the exhausted resource
// and when to retry. HTTP maps it to 429 + Retry-After.
var ErrOverLimit = errors.New("qos: tenant over limit")

// LimitError is the typed admission-control rejection.
type LimitError struct {
	Tenant     string        // tenant name
	Resource   string        // one of the Resource* constants
	RetryAfter time.Duration // bucket refill time; 0 means "retry shortly"
}

func (e *LimitError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("%v: tenant %q %s (retry after %s)", ErrOverLimit, e.Tenant, e.Resource, e.RetryAfter)
	}
	return fmt.Sprintf("%v: tenant %q %s", ErrOverLimit, e.Tenant, e.Resource)
}

func (e *LimitError) Unwrap() error { return ErrOverLimit }

// RetryAfterOf returns the suggested retry delay of an admission
// rejection, with ok=false when err is not a limit error.
func RetryAfterOf(err error) (time.Duration, bool) {
	var le *LimitError
	if errors.As(err, &le) {
		return le.RetryAfter, true
	}
	return 0, false
}

// Tenant is one tenant's live QoS state: its limits, its token bucket
// and concurrency gauges (under mu), and its lock-free accounting
// counters. All methods are safe for concurrent use.
type Tenant struct {
	name string

	mu       sync.Mutex
	limits   Limits
	bucket   bucket
	sessions int
	compiles int
	now      func() time.Time // the registry's clock

	// Accounting, lock-free on the hot path.
	scans       metrics.Counter
	scanBytes   metrics.Counter
	scanMatches metrics.Counter
	compileRuns metrics.Counter
	cacheBytes  metrics.Gauge
	queueWait   metrics.Histogram
	throttled   map[string]*metrics.Counter // keyed by Resource* constant
}

func newTenant(name string, limits Limits, now func() time.Time) *Tenant {
	t := &Tenant{
		name:      name,
		now:       now,
		throttled: make(map[string]*metrics.Counter, len(resources)),
	}
	for _, res := range resources {
		t.throttled[res] = &metrics.Counter{}
	}
	t.setLimits(limits)
	return t
}

// setLimits applies (re-)configuration. The bucket is re-shaped in
// place: the current level is clamped to the new burst, so a reload
// never hands out a free burst of credit.
func (t *Tenant) setLimits(l Limits) {
	l = l.withDefaults()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.limits = l
	t.bucket.rate = float64(l.ScanBytesPerSec)
	t.bucket.burst = float64(l.BurstBytes)
	if t.bucket.level > t.bucket.burst {
		t.bucket.level = t.bucket.burst
	}
}

// Name returns the tenant identity.
func (t *Tenant) Name() string { return t.name }

// Weight returns the tenant's live fair-queueing weight (>= 1). The
// worker pool reads it on every scheduling decision, so a SetConfig
// reload changes queueing immediately.
func (t *Tenant) Weight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limits.Weight
}

// AdmitScan runs admission control for n bytes of scan/feed input: it
// debits the tenant's byte bucket, or rejects with a *LimitError whose
// RetryAfter is the bucket refill time.
func (t *Tenant) AdmitScan(n int) error {
	t.mu.Lock()
	ok, retry := t.bucket.take(int64(n), t.now())
	t.mu.Unlock()
	if ok {
		return nil
	}
	t.throttled[ResourceScanBytes].Inc()
	return &LimitError{Tenant: t.name, Resource: ResourceScanBytes, RetryAfter: retry}
}

// DebitScan charges n more bytes of a scan AdmitScan already admitted,
// such as the later chunks of a body of unknown length, without a
// refusal: like an oversized body, they are paid off as debt.
func (t *Tenant) DebitScan(n int) {
	t.mu.Lock()
	t.bucket.debit(int64(n), t.now())
	t.mu.Unlock()
}

// AcquireSession reserves one concurrent-session slot; ReleaseSession
// returns it.
func (t *Tenant) AcquireSession() error {
	t.mu.Lock()
	if max := t.limits.MaxSessions; max > 0 && t.sessions >= max {
		t.mu.Unlock()
		t.throttled[ResourceSessions].Inc()
		return &LimitError{Tenant: t.name, Resource: ResourceSessions}
	}
	t.sessions++
	t.mu.Unlock()
	return nil
}

// ReleaseSession returns a session slot taken by AcquireSession.
func (t *Tenant) ReleaseSession() {
	t.mu.Lock()
	if t.sessions > 0 {
		t.sessions--
	}
	t.mu.Unlock()
}

// AcquireCompile reserves one compile slot; ReleaseCompile returns it.
// Successful acquisitions count toward the tenant's compile total.
func (t *Tenant) AcquireCompile() error {
	t.mu.Lock()
	if max := t.limits.CompileSlots; max > 0 && t.compiles >= max {
		t.mu.Unlock()
		t.throttled[ResourceCompileSlots].Inc()
		return &LimitError{Tenant: t.name, Resource: ResourceCompileSlots}
	}
	t.compiles++
	t.mu.Unlock()
	t.compileRuns.Inc()
	return nil
}

// ReleaseCompile returns a compile slot taken by AcquireCompile.
func (t *Tenant) ReleaseCompile() {
	t.mu.Lock()
	if t.compiles > 0 {
		t.compiles--
	}
	t.mu.Unlock()
}

// AccountScan folds one admitted scan/chunk into the tenant totals.
func (t *Tenant) AccountScan(nbytes, nmatches int) {
	t.scans.Inc()
	t.scanBytes.Add(int64(nbytes))
	t.scanMatches.Add(int64(nmatches))
}

// ChargeCacheBytes adjusts the program-cache bytes charged to the
// tenant (negative to uncharge on eviction).
func (t *Tenant) ChargeCacheBytes(n int64) { t.cacheBytes.Add(n) }

// ObserveQueueWait folds one request's worker-queue wait into the
// tenant's latency histogram — the per-tenant decomposition of the
// queue_wait stage.
func (t *Tenant) ObserveQueueWait(d time.Duration) { t.queueWait.Observe(d) }

// QueueWait exposes the queue-wait histogram for scrape-time collectors.
func (t *Tenant) QueueWait() *metrics.Histogram { return &t.queueWait }

// Snapshot is the JSON form of one tenant's QoS state, served in the
// /v1/stats qos block. BucketLevelBytes is the scheduler-visible scan
// bandwidth headroom (negative = debt from an oversized admitted body).
type TenantSnapshot struct {
	Name             string                    `json:"name"`
	Limits           Limits                    `json:"limits"`
	Scans            int64                     `json:"scans"`
	ScanBytes        int64                     `json:"scan_bytes"`
	ScanMatches      int64                     `json:"scan_matches"`
	SessionsOpen     int                       `json:"sessions_open"`
	CompilesInFlight int                       `json:"compiles_in_flight"`
	Compiles         int64                     `json:"compiles"`
	CacheBytes       int64                     `json:"cache_bytes"`
	BucketLevelBytes int64                     `json:"bucket_level_bytes"`
	Throttled        map[string]int64          `json:"throttled"`
	QueueWait        metrics.HistogramSnapshot `json:"queue_wait"`
}

// Snapshot captures the tenant's live state.
func (t *Tenant) Snapshot() TenantSnapshot {
	t.mu.Lock()
	limits := t.limits
	sessions := t.sessions
	compiles := t.compiles
	level := int64(t.bucket.levelAt(t.now()))
	t.mu.Unlock()
	throttled := make(map[string]int64, len(resources))
	for res, c := range t.throttled {
		throttled[res] = c.Value()
	}
	return TenantSnapshot{
		Name:             t.name,
		Limits:           limits,
		Scans:            t.scans.Value(),
		ScanBytes:        t.scanBytes.Value(),
		ScanMatches:      t.scanMatches.Value(),
		SessionsOpen:     sessions,
		CompilesInFlight: compiles,
		Compiles:         t.compileRuns.Value(),
		CacheBytes:       t.cacheBytes.Value(),
		BucketLevelBytes: level,
		Throttled:        throttled,
		QueueWait:        t.queueWait.Snapshot(),
	}
}

// Registry materializes tenants on first sight and carries the live
// configuration. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	cfg      Config
	tenants  map[string]*Tenant
	unlisted int // tenants made for names cfg did not list
	now      func() time.Time
}

// NewRegistry creates a registry from cfg (zero Config = anonymous-only,
// unlimited, weight 1) whose token buckets refill by the wall clock.
func NewRegistry(cfg Config) *Registry { return NewRegistryOn(cfg, time.Now) }

// NewRegistryOn is NewRegistry with the buckets refilling by now, so a
// service's manual clock steps them too.
func NewRegistryOn(cfg Config, now func() time.Time) *Registry {
	r := &Registry{tenants: map[string]*Tenant{}, now: now}
	r.SetConfig(cfg)
	return r
}

// Header returns the configured tenant identity header.
func (r *Registry) Header() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.Header == "" {
		return DefaultHeader
	}
	return r.cfg.Header
}

// limitsFor resolves the configured limits of name (r.mu held).
func (r *Registry) limitsFor(name string) Limits {
	if l, ok := r.cfg.Tenants[name]; ok {
		return l
	}
	return r.cfg.Default
}

// Tenant returns the live tenant for name, creating it with the
// configured limits on first sight. An empty name maps to Anonymous, and
// so does an unlisted name once MaxUnlistedTenants of them have tenants.
func (r *Registry) Tenant(name string) *Tenant {
	if name == "" {
		name = Anonymous
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[name]; ok {
		return t
	}
	if _, listed := r.cfg.Tenants[name]; !listed && name != Anonymous {
		if r.unlisted == MaxUnlistedTenants {
			name = Anonymous
		} else {
			r.unlisted++
		}
	}
	t, ok := r.tenants[name]
	if !ok {
		t = newTenant(name, r.limitsFor(name), r.now)
		r.tenants[name] = t
	}
	return t
}

// SetConfig replaces the configuration and re-applies limits to every
// live tenant in place — the SIGHUP reload path. Accounting state
// (counters, open sessions, bucket level up to the new burst) survives.
func (r *Registry) SetConfig(cfg Config) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg = cfg
	for name, t := range r.tenants {
		t.setLimits(r.limitsFor(name))
	}
}

// Tenants returns every live tenant, sorted by name.
func (r *Registry) Tenants() []*Tenant {
	r.mu.Lock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot captures every live tenant's state, sorted by name.
func (r *Registry) Snapshot() []TenantSnapshot {
	tenants := r.Tenants()
	out := make([]TenantSnapshot, len(tenants))
	for i, t := range tenants {
		out[i] = t.Snapshot()
	}
	return out
}
