package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/input"
	"repro/internal/service"
	"repro/pkg/rapclient"
)

// Rollout outcomes.
const (
	// OutcomePromoted: canaries stayed healthy through the observation
	// window and the update reached every replica.
	OutcomePromoted = "promoted"
	// OutcomeRolledBack: a canary failed its window or health checks
	// (or a stage failed); every touched replica was restored to the
	// previous live ruleset.
	OutcomeRolledBack = "rolled_back"
	// OutcomeApplied: no canary phase was possible or configured
	// (single replica, Fraction <= 0); the update applied directly.
	OutcomeApplied = "applied"
)

// ClusterGenerationHeader carries the cluster-level ruleset generation
// on rollout PUTs so the receiving node can record which catalog
// generation its local program now matches.
const ClusterGenerationHeader = "X-RAP-Cluster-Generation"

// RolloutResult is the cluster response to PUT /v1/programs/{id}. The
// embedded UpdateResult is the staged node's RAPD delta report, so a
// plain single-node client (rapclient.Update) decodes it unchanged;
// cluster-aware callers additionally read the rollout fields.
type RolloutResult struct {
	service.UpdateResult
	Outcome           string   `json:"outcome"`
	ClusterGeneration int64    `json:"cluster_generation"`
	ReplicaSet        []string `json:"replica_set"`
	Canaries          []string `json:"canaries,omitempty"`
	Reason            string   `json:"reason,omitempty"`
}

// handleUpdate serves PUT /v1/programs/{id}. A forwarded request is one
// rollout step: apply locally and record the cluster generation. A
// client request makes this node the rollout coordinator.
func (n *Node) handleUpdate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := input.ReadBody(w, r)
	if !ok {
		return
	}
	if forwarded(r) {
		resp := n.localRoundTrip(r.Context(), http.MethodPut, "/v1/programs/"+id, r.Header, body)
		if resp.status < 300 {
			if g, err := strconv.ParseInt(r.Header.Get(ClusterGenerationHeader), 10, 64); err == nil {
				n.setApplied(id, g)
			}
		}
		writeProxyResp(w, resp)
		return
	}
	meta, known := n.catalog.Get(id)
	req, err := service.DecodeRuleset(body)
	if err != nil || !known {
		// Malformed body (let the service diagnose) or a program the
		// cluster has never seen (single-node semantics apply).
		writeProxyResp(w, n.localRoundTrip(r.Context(), http.MethodPut, "/v1/programs/"+id, r.Header, body))
		return
	}
	n.rollout(w, r, id, meta, req.Patterns, req.Options, body)
}

// rollout is the canary state machine: warm every replica, stage the
// update on a fraction of them, watch their requests and health over
// the observation window, then promote to the rest or roll back.
func (n *Node) rollout(w http.ResponseWriter, r *http.Request, id string, meta ProgramMeta, patterns []string, opts service.CompileOptions, body []byte) {
	ctx := r.Context()
	newGen := meta.Generation + 1
	placement := n.livePlacement(id, meta.Replicas)

	// Every replica must hold the program before a PUT can delta it.
	// The compile is a cache hit on warm replicas and a repair on cold
	// ones, so this is cheap in steady state.
	warmBody, _ := json.Marshal(map[string]any{"patterns": meta.Patterns, "options": meta.Options})
	for _, t := range placement {
		if resp := n.roundTrip(ctx, t, http.MethodPost, "/v1/programs", r.Header, warmBody); resp.status >= 300 {
			writeProxyResp(w, resp)
			return
		}
	}

	hdr := r.Header.Clone()
	hdr.Set(ClusterGenerationHeader, strconv.FormatInt(newGen, 10))
	stage := func(t string) *proxyResp {
		resp := n.roundTrip(ctx, t, http.MethodPut, "/v1/programs/"+id, hdr, body)
		if resp.status < 300 && t == n.cfg.ID {
			// Local stages bypass the forwarded handler, so record the
			// applied generation here.
			n.setApplied(id, newGen)
		}
		return resp
	}

	canaries := 0
	if len(placement) > 1 && n.cfg.Canary.Fraction > 0 {
		canaries = int(math.Ceil(n.cfg.Canary.Fraction * float64(len(placement))))
		if canaries >= len(placement) {
			canaries = len(placement) - 1
		}
	}

	if canaries == 0 {
		var last *proxyResp
		for _, t := range placement {
			if last = stage(t); last.status >= 300 {
				writeProxyResp(w, last)
				return
			}
		}
		n.promoteCatalog(id, meta, patterns, opts, newGen)
		n.canaryOut[OutcomeApplied].Inc()
		n.log.Info("ruleset applied", "program", id, "generation", newGen, "replicas", placement)
		n.writeRollout(w, last, RolloutResult{
			Outcome: OutcomeApplied, ClusterGeneration: newGen, ReplicaSet: placement,
		})
		return
	}

	// Stage the placement TAIL first: the owner (slot 0) changes last,
	// so a bad ruleset never reaches the primary before it proves out.
	staged := placement[len(placement)-canaries:]
	rest := placement[:len(placement)-canaries]
	var canaryResp *proxyResp
	var touched []string
	fail := func(reason string, errResp *proxyResp) {
		n.rollbackReplicas(id, meta, touched)
		n.canaryOut[OutcomeRolledBack].Inc()
		n.log.Warn("ruleset rolled back", "program", id, "reason", reason)
		if errResp != nil {
			writeProxyResp(w, errResp)
			return
		}
		n.writeRollout(w, canaryResp, RolloutResult{
			Outcome: OutcomeRolledBack, ClusterGeneration: meta.Generation,
			ReplicaSet: placement, Canaries: staged, Reason: reason,
		})
	}
	for _, t := range staged {
		resp := stage(t)
		if resp.status >= 300 {
			fail("stage failed on "+t, resp)
			return
		}
		canaryResp = resp
		touched = append(touched, t)
	}

	if reason := n.watchCanaries(ctx, staged); reason != "" {
		fail(reason, nil)
		return
	}

	for _, t := range rest {
		if resp := stage(t); resp.status >= 300 {
			fail("promote failed on "+t, nil)
			return
		}
		touched = append(touched, t)
	}
	n.promoteCatalog(id, meta, patterns, opts, newGen)
	n.canaryOut[OutcomePromoted].Inc()
	n.log.Info("ruleset promoted", "program", id, "generation", newGen, "canaries", staged)
	n.writeRollout(w, canaryResp, RolloutResult{
		Outcome: OutcomePromoted, ClusterGeneration: newGen,
		ReplicaSet: placement, Canaries: staged,
	})
}

// livePlacement is the program's placement filtered to live members
// (self as the degenerate fallback).
func (n *Node) livePlacement(id string, replicas int) []string {
	placement := n.ring.Placement(id, replicas)
	live := placement[:0:0]
	for _, p := range placement {
		if n.members.Alive(p) {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		live = []string{n.cfg.ID}
	}
	return live
}

// The canary window's limits, the fast-burn limit 14.4 over a 99.9 %
// success objective and a 99 % latency one: a canary rolls back when
// more than 1.44 % of the requests it finished since staging were
// answered 5xx, or more than 14.4 % took longer than 250 ms.
const (
	canaryMax5xxShare  = 14.4 * 0.001
	canaryMaxSlowShare = 14.4 * 0.01
)

// judgeWindow is the verdict on a canary's own window: the requests it
// finished between the sample taken at staging (base) and a later one
// (now). A non-empty return is the rollback reason. A window with no
// requests passes.
func judgeWindow(base, now rapclient.RequestCounts) string {
	total := now.Total - base.Total
	if total <= 0 {
		return ""
	}
	if errs := now.Errors - base.Errors; float64(errs) > canaryMax5xxShare*float64(total) {
		return fmt.Sprintf("answered %d of %d requests 5xx since staging, above %.2f%%", errs, total, 100*canaryMax5xxShare)
	}
	if slow := now.Slow - base.Slow; float64(slow) > canaryMaxSlowShare*float64(total) {
		return fmt.Sprintf("answered %d of %d requests slowly since staging, above %.1f%%", slow, total, 100*canaryMaxSlowShare)
	}
	return ""
}

// watchCanaries samples each staged node's /v1/stats through the
// observation window. A node's first sample, taken once it is staged,
// is the baseline each later one is judged against. A non-empty return
// is the rollback reason.
func (n *Node) watchCanaries(ctx context.Context, nodes []string) string {
	deadline := n.cfg.Service.Clock.Now().Add(n.cfg.Canary.Observe)
	base := make(map[string]rapclient.RequestCounts, len(nodes))
	for {
		for _, id := range nodes {
			if reason := n.checkCanary(ctx, id, base); reason != "" {
				return reason
			}
		}
		if !n.cfg.Service.Clock.Now().Before(deadline) {
			return ""
		}
		select {
		case <-ctx.Done():
			return "rollout canceled: " + ctx.Err().Error()
		case <-n.cfg.Service.Clock.After(n.cfg.Canary.Observe / 4):
		}
	}
}

// checkCanary takes one canary sample and judges it: the health score,
// the window since staging against the baseline in base (recording the
// baseline on the node's first sample), then the configured Check seam.
func (n *Node) checkCanary(ctx context.Context, nodeID string, base map[string]rapclient.RequestCounts) string {
	m, ok := n.members.Get(nodeID)
	if !ok || m.Addr == "" {
		return "canary " + nodeID + " has no reachable address"
	}
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	st, err := rapclient.New(m.Addr, rapclient.WithRetries(1)).Stats(cctx)
	if err != nil {
		return fmt.Sprintf("canary %s stats: %v", nodeID, err)
	}
	if st.Health.Score < n.cfg.Canary.MinHealth {
		return fmt.Sprintf("canary %s health %.2f below %.2f", nodeID, st.Health.Score, n.cfg.Canary.MinHealth)
	}
	if b, seen := base[nodeID]; !seen {
		base[nodeID] = st.Requests
	} else if reason := judgeWindow(b, st.Requests); reason != "" {
		return "canary " + nodeID + " " + reason
	}
	if n.cfg.Canary.Check != nil {
		if err := n.cfg.Canary.Check(nodeID, st); err != nil {
			return fmt.Sprintf("canary %s check: %v", nodeID, err)
		}
	}
	return ""
}

// rollbackReplicas restores the previous live ruleset on every touched
// node. It runs on a background context: a client that gave up must not
// strand canaries on an unpromoted ruleset.
func (n *Node) rollbackReplicas(id string, meta ProgramMeta, nodes []string) {
	if len(nodes) == 0 {
		return
	}
	live, liveOpts := meta.Live()
	body, _ := json.Marshal(map[string]any{"patterns": live, "options": liveOpts})
	hdr := make(http.Header)
	hdr.Set("Content-Type", "application/json")
	hdr.Set(ClusterGenerationHeader, strconv.FormatInt(meta.Generation, 10))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, t := range nodes {
		resp := n.roundTrip(ctx, t, http.MethodPut, "/v1/programs/"+id, hdr, body)
		if resp.status >= 300 {
			n.log.Warn("canary rollback failed", "node", t, "program", id, "status", resp.status)
			continue
		}
		if t == n.cfg.ID {
			n.setApplied(id, meta.Generation)
		}
	}
}

// promoteCatalog records the new live ruleset and announces it to every
// peer at once (replicas that were down reconcile through ensureLocal).
func (n *Node) promoteCatalog(id string, meta ProgramMeta, patterns []string, opts service.CompileOptions, gen int64) {
	if n.catalog.Put(ProgramMeta{
		ID:           id,
		Patterns:     meta.Patterns,
		Options:      meta.Options,
		LivePatterns: patterns,
		LiveOptions:  opts,
		Generation:   gen,
		Replicas:     meta.Replicas,
	}) {
		n.announce()
	}
}

// writeRollout merges the staged node's UpdateResult body with the
// rollout fields into one flat JSON object.
func (n *Node) writeRollout(w http.ResponseWriter, upstream *proxyResp, ro RolloutResult) {
	out := map[string]any{}
	if upstream != nil && upstream.status < 300 {
		json.Unmarshal(upstream.body, &out)
	}
	out["outcome"] = ro.Outcome
	out["cluster_generation"] = ro.ClusterGeneration
	out["replica_set"] = ro.ReplicaSet
	if len(ro.Canaries) > 0 {
		out["canaries"] = ro.Canaries
	}
	if ro.Reason != "" {
		out["reason"] = ro.Reason
	}
	body, _ := json.Marshal(out)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
