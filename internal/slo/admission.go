package slo

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// Shedder receives the controller's shed level. level 0 means no
// shedding (restore full rates); level l in (0,1] asks the QoS layer to
// tighten effective admission rates by up to that fraction, heaviest
// consumers first. qos.Registry implements this.
type Shedder interface {
	ApplyShed(level float64)
}

// Controller closes the loop from SLO burn to admission: each tick it
// evaluates the engine, reads the fast-burn ratio of the configured
// admission objective, and raises or decays the shed level handed to
// the Shedder. Tightening is multiplicative-increase (react fast),
// relaxing is geometric decay (recover smoothly).
type Controller struct {
	engine  *Engine
	shedder Shedder

	mu    sync.Mutex
	level float64

	tightened metrics.Counter
	relaxed   metrics.Counter
}

// NewController wires engine to shedder. shedder may be nil (the
// controller still evaluates and logs breaches, useful for dry runs).
func NewController(e *Engine, sh Shedder) *Controller {
	return &Controller{engine: e, shedder: sh}
}

// Tick runs one evaluation + admission step and returns the breach
// events the evaluation produced. Tests drive the controller by calling
// Tick directly; Start runs it on the configured cadence.
func (c *Controller) Tick() []BreachEvent {
	if c == nil {
		return nil
	}
	events := c.engine.Evaluate()
	cfg := c.engine.Config().Admission // re-read: SIGHUP may have swapped it
	c.mu.Lock()
	prev := c.level
	if !cfg.Enabled {
		c.level = 0
	} else if st, ok := c.engine.Status(cfg.Objective); ok {
		ratio := 0.0
		if st.FastLimit > 0 {
			ratio = st.FastBurn / st.FastLimit
		}
		switch {
		case ratio >= 1:
			next := c.level*1.5 + 0.1
			if next > cfg.MaxLevel {
				next = cfg.MaxLevel
			}
			if next > c.level {
				c.level = next
				c.tightened.Inc()
			}
		case ratio < cfg.RelaxBelow && c.level > 0:
			c.level *= 0.6
			if c.level < 0.02 {
				c.level = 0
			}
			c.relaxed.Inc()
		}
	}
	level := c.level
	c.mu.Unlock()
	if c.shedder != nil && (level != prev || level > 0) {
		c.shedder.ApplyShed(level)
	}
	return events
}

// Start runs Tick on the engine's clock every Admission.Tick until stop;
// a reloaded Tick applies without a restart.
func (c *Controller) Start() (stop func()) {
	return c.engine.clock.Every(func() time.Duration { return c.engine.Config().Admission.Tick.Std() }, func() { c.Tick() })
}

// Level returns the current shed level in [0,1].
func (c *Controller) Level() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// Counters exposes the tighten/relax decision counters for metric
// registration (rap_slo_admission_tightened_total / _relaxed_total).
func (c *Controller) Counters() (tightened, relaxed *metrics.Counter) {
	if c == nil {
		return nil, nil
	}
	return &c.tightened, &c.relaxed
}
