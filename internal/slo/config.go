package slo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/input"
)

// Objective kinds. A latency objective classifies each observation by a
// microsecond threshold (good = at-or-under); a ratio objective takes
// explicit good/bad events (error rate: good = non-5xx).
const (
	KindLatency = "latency"
	KindRatio   = "ratio"
)

// Well-known objective names. The service wires its stage histograms and
// request middleware to these; config files may override their targets
// and windows, add new objectives, or disable any of them.
const (
	ObjectiveRequestLatency  = "request_latency"
	ObjectiveErrorRate       = "error_rate"
	ObjectiveStageScan       = "stage:scan"
	ObjectiveStageCompile    = "stage:compile"
	ObjectiveStageQueueWait  = "stage:queue_wait"
	ObjectiveStageApply      = "stage:reconfig_apply"
	ObjectiveTenantQueueWait = "tenant_queue_wait"
)

// Duration is a time.Duration that marshals as a duration string
// ("5m", "250ms") and unmarshals from either that or integer nanoseconds,
// matching how humans write SLO windows in config files.
type Duration time.Duration

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "5m"-style strings or raw integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		p, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("slo: bad duration %q: %w", x, err)
		}
		*d = Duration(p)
	case float64:
		*d = Duration(time.Duration(x))
	default:
		return fmt.Errorf("slo: duration must be a string or integer nanoseconds, got %T", v)
	}
	return nil
}

// Std returns the standard-library form.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// WindowSpec is one evaluation window: how far back to look and the burn
// rate above which the window is considered exceeded.
type WindowSpec struct {
	Duration Duration `json:"duration"`
	Burn     float64  `json:"burn"`
}

// Objective is one SLO: a target good-fraction over each window, and for
// latency objectives the microsecond threshold separating good from bad.
// Fast is the short reactive window, Slow the long confirming window; the
// objective is in breach when both exceed their burn limits, and in
// fast_burn (the early-warning state) when only the fast window does.
type Objective struct {
	Kind        string     `json:"kind"`
	Target      float64    `json:"target"`
	ThresholdUS int64      `json:"threshold_us,omitempty"`
	PerTenant   bool       `json:"per_tenant,omitempty"`
	Fast        WindowSpec `json:"fast"`
	Slow        WindowSpec `json:"slow"`
	Disabled    bool       `json:"disabled,omitempty"`
}

// Config is the JSON schema of the -slo-config file (reloaded on SIGHUP).
// Objectives merge over DefaultConfig: a named entry overrides the
// default of the same name, Disabled removes it, and unknown names add
// new objectives fed via Engine.Observe*.
type Config struct {
	Objectives map[string]Objective `json:"objectives,omitempty"`
}

// DefaultConfig returns the built-in objectives: request latency and
// error rate with the classic SRE 5m/1h multi-burn windows, p99-style
// latency objectives per pipeline stage, and a tight per-tenant
// queue-wait objective.
func DefaultConfig() Config {
	fastSlow := func(fd time.Duration, fb float64, sd time.Duration, sb float64) (WindowSpec, WindowSpec) {
		return WindowSpec{Duration: Duration(fd), Burn: fb}, WindowSpec{Duration: Duration(sd), Burn: sb}
	}
	latency := func(threshold time.Duration, target float64) Objective {
		o := Objective{Kind: KindLatency, Target: target, ThresholdUS: threshold.Microseconds()}
		o.Fast, o.Slow = fastSlow(5*time.Minute, 14.4, time.Hour, 6)
		return o
	}
	errRate := Objective{Kind: KindRatio, Target: 0.999}
	errRate.Fast, errRate.Slow = fastSlow(5*time.Minute, 14.4, time.Hour, 6)
	tenantQW := Objective{Kind: KindLatency, Target: 0.95, ThresholdUS: (25 * time.Millisecond).Microseconds(), PerTenant: true}
	tenantQW.Fast, tenantQW.Slow = fastSlow(time.Minute, 4, 10*time.Minute, 2)
	return Config{
		Objectives: map[string]Objective{
			ObjectiveRequestLatency:  latency(250*time.Millisecond, 0.99),
			ObjectiveErrorRate:       errRate,
			ObjectiveStageScan:       latency(100*time.Millisecond, 0.99),
			ObjectiveStageCompile:    latency(500*time.Millisecond, 0.99),
			ObjectiveStageQueueWait:  latency(50*time.Millisecond, 0.99),
			ObjectiveStageApply:      latency(50*time.Millisecond, 0.99),
			ObjectiveTenantQueueWait: tenantQW,
		},
	}
}

// resolved merges c over the defaults: named objectives replace the
// default entry wholesale, and Disabled entries are dropped.
func (c Config) resolved() Config {
	out := DefaultConfig()
	for name, o := range c.Objectives {
		out.Objectives[name] = o
	}
	for name, o := range out.Objectives {
		if o.Disabled {
			delete(out.Objectives, name)
		}
	}
	return out
}

// Validate checks every objective for a usable target, threshold and
// window pair. Called by LoadFile; programmatic configs may call it too.
func (c Config) Validate() error {
	names := make([]string, 0, len(c.Objectives))
	for name := range c.Objectives {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := c.Objectives[name]
		if o.Disabled {
			continue
		}
		if o.Kind != KindLatency && o.Kind != KindRatio {
			return fmt.Errorf("slo: objective %q: kind must be %q or %q, got %q", name, KindLatency, KindRatio, o.Kind)
		}
		if o.Target <= 0 || o.Target >= 1 {
			return fmt.Errorf("slo: objective %q: target must be in (0,1), got %g", name, o.Target)
		}
		if o.Kind == KindLatency && o.ThresholdUS <= 0 {
			return fmt.Errorf("slo: objective %q: latency objective needs threshold_us > 0", name)
		}
		if o.Fast.Duration <= 0 || o.Slow.Duration <= 0 {
			return fmt.Errorf("slo: objective %q: fast and slow window durations must be > 0", name)
		}
		if o.Fast.Duration > o.Slow.Duration {
			return fmt.Errorf("slo: objective %q: fast window (%s) longer than slow window (%s)",
				name, o.Fast.Duration.Std(), o.Slow.Duration.Std())
		}
		if o.Fast.Burn <= 0 || o.Slow.Burn <= 0 {
			return fmt.Errorf("slo: objective %q: burn limits must be > 0", name)
		}
	}
	return nil
}

// LoadFile reads and validates a JSON SLO config. Unknown fields are
// rejected so typos fail the reload instead of silently reverting an
// objective to its default.
func LoadFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	c, err := parse(f)
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// parse reads one config (input.DecodeConfig) that Validate accepts.
func parse(r io.Reader) (Config, error) {
	var c Config
	if err := input.DecodeConfig(r, &c); err != nil {
		return Config{}, fmt.Errorf("slo: %w", err)
	}
	return c, c.Validate()
}
