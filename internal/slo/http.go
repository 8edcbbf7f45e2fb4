package slo

import (
	"encoding/json"
	"net/http"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// HealthHandler serves GET /v1/health: the full component breakdown.
// Always 200 — health is a report, not a gate; load balancers gate on
// /readyz.
func HealthHandler(s *Scorer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Snapshot())
	})
}

// ReadyHandler serves GET /readyz: 503 while any component is critical,
// 200 otherwise, with a one-line JSON body either way.
func ReadyHandler(s *Scorer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := s.Snapshot()
		status := http.StatusOK
		if snap.Status == HealthCritical {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, struct {
			Status string  `json:"status"`
			Score  float64 `json:"score"`
		}{snap.Status, snap.Score})
	})
}

// debugSnapshot is the GET /debug/slo body.
type debugSnapshot struct {
	Objectives  []ObjectiveStatus `json:"objectives"`
	BreachesTot int64             `json:"breaches_total"`
	Breaches    []BreachEvent     `json:"breaches"`
}

// DebugHandler serves GET /debug/slo: every objective's current burns
// and state, and the breach log with its trace snapshots.
func DebugHandler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := debugSnapshot{
			Objectives: e.Statuses(),
			Breaches:   e.Breaches(),
		}
		if snap.Breaches == nil {
			snap.Breaches = []BreachEvent{}
		}
		if bc := e.BreachCounter(); bc != nil {
			snap.BreachesTot = bc.Value()
		}
		writeJSON(w, http.StatusOK, snap)
	})
}
