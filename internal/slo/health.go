package slo

import (
	"sync"
	"time"

	"repro/internal/clock"
)

// Health states, derived from a component's score.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthCritical = "critical"
)

// StateOf maps a score to a health state: ≥0.8 ok, ≥0.35 degraded,
// below that critical.
func StateOf(score float64) string {
	switch {
	case score >= 0.8:
		return HealthOK
	case score >= 0.35:
		return HealthDegraded
	default:
		return HealthCritical
	}
}

// Component is one scored health dimension (slo, worker_pool,
// program_cache, reconfig, ...). Score is in [0,1], Detail carries the
// raw signals the score was derived from.
type Component struct {
	Name   string             `json:"name"`
	Score  float64            `json:"score"`
	State  string             `json:"state"`
	Detail map[string]float64 `json:"detail,omitempty"`
}

// ScoreComponent clamps score to [0,1] and fills in the derived state.
func ScoreComponent(name string, score float64, detail map[string]float64) Component {
	if score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	return Component{Name: name, Score: score, State: StateOf(score), Detail: detail}
}

// Probe produces one component's current health. Probes must be cheap:
// they run on every /v1/health and /readyz request.
type Probe func() Component

// HealthSnapshot is the JSON body of GET /v1/health.
type HealthSnapshot struct {
	Status     string      `json:"status"`
	Score      float64     `json:"score"`
	Time       time.Time   `json:"time"`
	Components []Component `json:"components"`
}

// Scorer folds registered probes into an overall health score. The
// overall score is the minimum component score — a single critical
// subsystem makes the node critical, matching how load balancers should
// treat it.
type Scorer struct {
	clock  clock.Clock
	mu     sync.Mutex
	probes []Probe
}

// NewScorer returns an empty scorer (healthy until probes say otherwise).
func NewScorer(clk clock.Clock) *Scorer { return &Scorer{clock: clk} }

// Add registers a probe.
func (s *Scorer) Add(p Probe) {
	if s == nil || p == nil {
		return
	}
	s.mu.Lock()
	s.probes = append(s.probes, p)
	s.mu.Unlock()
}

// Snapshot runs every probe and folds the results.
func (s *Scorer) Snapshot() HealthSnapshot {
	if s == nil {
		return HealthSnapshot{Status: HealthOK, Score: 1}
	}
	snap := HealthSnapshot{Status: HealthOK, Score: 1, Time: s.clock.Now()}
	s.mu.Lock()
	probes := append([]Probe(nil), s.probes...)
	s.mu.Unlock()
	for _, p := range probes {
		c := p()
		snap.Components = append(snap.Components, c)
		if c.Score < snap.Score {
			snap.Score = c.Score
		}
	}
	snap.Status = StateOf(snap.Score)
	return snap
}

// Score returns just the overall score (for gauges).
func (s *Scorer) Score() float64 { return s.Snapshot().Score }
