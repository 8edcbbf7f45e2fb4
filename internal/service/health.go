package service

import (
	"net/http"
	"time"
)

// Health states, derived from a score.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthCritical = "critical"
)

// healthState maps a score to a health state: ≥0.8 ok, ≥0.35 degraded,
// below that critical.
func healthState(score float64) string {
	switch {
	case score >= 0.8:
		return HealthOK
	case score >= 0.35:
		return HealthDegraded
	default:
		return HealthCritical
	}
}

// HealthComponent is one scored health dimension (worker_pool,
// program_cache, reconfig). Score is in [0,1], Detail carries the raw
// signals the score was derived from.
type HealthComponent struct {
	Name   string             `json:"name"`
	Score  float64            `json:"score"`
	State  string             `json:"state"`
	Detail map[string]float64 `json:"detail,omitempty"`
}

// component clamps score to [0,1] and fills in the derived state.
func component(name string, score float64, detail map[string]float64) HealthComponent {
	score = min(max(score, 0), 1)
	return HealthComponent{Name: name, Score: score, State: healthState(score), Detail: detail}
}

// HealthSnapshot is the JSON body of GET /v1/health and the health
// block of /v1/stats.
type HealthSnapshot struct {
	Status     string            `json:"status"`
	Score      float64           `json:"score"`
	Time       time.Time         `json:"time"`
	Components []HealthComponent `json:"components"`
}

// Health scores the worker pool, the program cache and the hot-swap
// path. The overall score is the minimum component score: one critical
// subsystem makes the node critical, which is how a load balancer
// should treat it. Every probe reads counters only, so this is cheap
// enough for each /v1/health and /readyz request.
func (s *Service) Health() HealthSnapshot {
	snap := HealthSnapshot{
		Score: 1,
		Time:  s.cfg.Clock.Now(),
		Components: []HealthComponent{
			s.poolHealth(), s.cacheHealth(), s.reconfigHealth(),
		},
	}
	for _, c := range snap.Components {
		snap.Score = min(snap.Score, c.Score)
	}
	snap.Status = healthState(snap.Score)
	return snap
}

// poolHealth scores worker-pool saturation: the live queue depth
// against the slots of every tenant queue that exists. An idle pool
// scores 1; a pool with every queue slot full scores 0. One tenant
// filling its own queues while another's stand empty is degraded, not
// critical: the other tenant is still served.
func (s *Service) poolHealth() HealthComponent {
	st := s.pool.stats()
	capacity := float64(st.TenantQueues * st.QueueCapacity)
	queued := float64(s.pool.queued.Value())
	sat := 0.0
	if capacity > 0 {
		sat = queued / capacity
	}
	return component("worker_pool", 1-sat, map[string]float64{
		"queued":   queued,
		"capacity": capacity,
		"rejected": float64(s.pool.rejected.Value()),
	})
}

// cacheHealth scores program-cache pressure. Occupancy alone is
// healthy (a full LRU is the steady state), so only half the score
// rides on it; eviction churn is reported as detail for dashboards.
func (s *Service) cacheHealth() HealthComponent {
	st := s.cache.stats()
	occ := 0.0
	if st.Capacity > 0 {
		occ = float64(st.Size) / float64(st.Capacity)
	}
	return component("program_cache", 1-0.5*occ, map[string]float64{
		"size":      float64(st.Size),
		"capacity":  float64(st.Capacity),
		"evictions": float64(st.Evictions),
	})
}

// reconfigHealth scores hot-swap stall pressure: the modeled
// match-pipeline stall cycles against the reload cycles shipped. Tiny
// deltas can legitimately stall for more cycles than they reload
// (quiesce overhead dominates), so the ratio is clamped at 1 — stall
// pressure alone bottoms out at "degraded" (0.5) and never marks a
// node critical, which would wrongly fail /readyz (and cluster canary
// health checks) after every small ruleset swap.
func (s *Service) reconfigHealth() HealthComponent {
	reload := float64(s.updateReloadCycles.Value())
	stall := float64(s.updateStallCycles.Value())
	ratio := 0.0
	if reload > 0 {
		ratio = min(stall/reload, 1)
	}
	return component("reconfig", 1-0.5*ratio, map[string]float64{
		"updates":       float64(s.updates.Value()),
		"stall_cycles":  stall,
		"reload_cycles": reload,
	})
}

// MonitorHandler serves the monitoring routes alone — /healthz,
// /readyz, /v1/health and /metrics — for a listener kept off the
// request port (rapserve -health-addr). Handler serves the same routes
// through the same code.
func (s *Service) MonitorHandler() http.Handler {
	mux := http.NewServeMux()
	s.monitorRoutes(mux)
	return mux
}

// monitorRoutes registers the liveness, readiness, health and scrape
// endpoints on mux. None of them is traced: monitoring traffic stays
// out of the trace ring and the request counters.
//
//	GET /healthz    → {"status":"ok"} while the process serves (liveness)
//	GET /readyz     → 503 while any health component is critical
//	GET /v1/health  → the scored component breakdown, always 200
//	GET /metrics    → Prometheus/OpenMetrics exposition
func (s *Service) monitorRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		snap := s.Health()
		status := http.StatusOK
		if snap.Status == HealthCritical {
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Cache-Control", "no-store")
		writeJSON(w, status, struct {
			Status string  `json:"status"`
			Score  float64 `json:"score"`
		}{snap.Status, snap.Score})
	})
	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		writeJSON(w, http.StatusOK, s.Health())
	})
	mux.Handle("GET /metrics", s.tel.Handler())
}
