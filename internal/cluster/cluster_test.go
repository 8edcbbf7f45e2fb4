package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/pkg/rapclient"
)

// testCluster is an in-process cluster: each node behind a real HTTP
// server, so forwarding, gossip and canary stats fetches all cross a
// genuine network boundary.
type testCluster struct {
	nodes   []*cluster.Node
	servers []*httptest.Server
}

func (tc *testCluster) close() {
	for i, n := range tc.nodes {
		if n != nil {
			tc.servers[i].Close()
			n.Close()
		}
	}
}

// kill takes node i down hard: server first (peers see connection
// refused), then the node itself.
func (tc *testCluster) kill(i int) {
	tc.servers[i].Close()
	tc.nodes[i].Close()
	tc.nodes[i] = nil
}

func (tc *testCluster) node(id string) *cluster.Node {
	for _, n := range tc.nodes {
		if n != nil && n.ID() == id {
			return n
		}
	}
	return nil
}

// startCluster brings up size nodes with fast gossip/canary timing.
// mutate (optional) adjusts each node's config before construction.
func startCluster(t *testing.T, size int, mutate func(i int, cfg *cluster.Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		nodes:   make([]*cluster.Node, size),
		servers: make([]*httptest.Server, size),
	}
	// Servers come up first so every node can know every address; the
	// closure guards the window before its node exists.
	for i := range tc.servers {
		i := i
		tc.servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n := tc.nodes[i]
			if n == nil {
				http.Error(w, "node starting", http.StatusServiceUnavailable)
				return
			}
			n.Handler().ServeHTTP(w, r)
		}))
	}
	var seeds []string
	for _, s := range tc.servers {
		seeds = append(seeds, s.URL)
	}
	for i := range tc.nodes {
		cfg := cluster.Config{
			ID:             fmt.Sprintf("n%d", i),
			Seeds:          seeds,
			Replicas:       2,
			GossipInterval: 20 * time.Millisecond,
			SuspectAfter:   200 * time.Millisecond,
			DeadAfter:      500 * time.Millisecond,
		}
		cfg.Service.Workers = 1
		cfg.Canary.Observe = 150 * time.Millisecond
		cfg.Canary.Poll = 40 * time.Millisecond
		if mutate != nil {
			mutate(i, &cfg)
		}
		n, err := cluster.NewNode(cfg)
		if err != nil {
			tc.close()
			t.Fatalf("NewNode: %v", err)
		}
		tc.nodes[i] = n
	}
	for i, n := range tc.nodes {
		n.Start(tc.servers[i].URL)
	}
	t.Cleanup(tc.close)
	return tc
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitConverged(t *testing.T, tc *testCluster, size int) {
	t.Helper()
	waitFor(t, 5*time.Second, fmt.Sprintf("ring convergence to %d nodes", size), func() bool {
		for _, n := range tc.nodes {
			if n == nil {
				continue
			}
			if n.Ring().Size() != size {
				return false
			}
		}
		return true
	})
}

// TestClusterEndToEnd is the 3-node smoke the ISSUE requires: gossip
// convergence, consistent-hash placement, proxied scans with replica
// fan-out and repair, node-sticky session affinity across gateways and
// through a non-owning node's departure, and a canary rollout staged on
// one replica then promoted with zero failed in-flight sessions.
func TestClusterEndToEnd(t *testing.T) {
	var failCanary atomic.Bool
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) {
		// Keep the replica set at the configured width: the scan bursts
		// below would otherwise trip hot-program fan-out (covered by
		// TestClusterHotFanOut).
		cfg.HotScanRate = 1e9
		cfg.Canary.Check = func(nodeID string, st *rapclient.Stats) error {
			if failCanary.Load() {
				return errors.New("injected canary fault")
			}
			return nil
		}
	})
	waitConverged(t, tc, 3)

	ctx := context.Background()
	gw := rapclient.New(tc.servers[0].URL)

	// --- Placement: every node routes the program identically.
	prog, err := gw.Compile(ctx, []string{"alpha", "beta"}, nil)
	if err != nil {
		t.Fatalf("compile through gateway: %v", err)
	}
	placement := tc.nodes[0].Ring().Placement(prog.ID, 2)
	if len(placement) != 2 {
		t.Fatalf("placement = %v, want 2 replicas", placement)
	}
	for _, n := range tc.nodes[1:] {
		got := n.Ring().Placement(prog.ID, 2)
		if fmt.Sprint(got) != fmt.Sprint(placement) {
			t.Fatalf("node %s placement %v != %v", n.ID(), got, placement)
		}
	}

	// --- Proxied scans succeed from every gateway immediately (cold
	// replicas fall through to the owner; the repair path fills in).
	for i, srv := range tc.servers {
		res, err := rapclient.New(srv.URL).Scan(ctx, prog.ID, []byte("alpha then beta"))
		if err != nil {
			t.Fatalf("early scan via n%d: %v", i, err)
		}
		if res.Count != 2 {
			t.Fatalf("early scan via n%d count = %d, want 2", i, res.Count)
		}
	}
	// Once digest gossip has warmed the replicas, scans spread over the
	// whole replica set round-robin.
	waitFor(t, 5*time.Second, "replica warm-up", func() bool {
		for _, id := range placement {
			if _, ok := tc.node(id).Service().Program(prog.ID); !ok {
				return false
			}
		}
		return true
	})
	for i, srv := range tc.servers {
		cl := rapclient.New(srv.URL)
		for j := 0; j < 6; j++ {
			res, err := cl.Scan(ctx, prog.ID, []byte("alpha then beta"))
			if err != nil {
				t.Fatalf("scan via n%d: %v", i, err)
			}
			if res.Count != 2 {
				t.Fatalf("scan via n%d count = %d, want 2", i, res.Count)
			}
		}
	}
	for _, id := range placement {
		if got := tc.node(id).Service().Stats().Scans; got == 0 {
			t.Fatalf("replica %s served no scans; load did not spread", id)
		}
	}

	// --- Session affinity: open through one gateway, feed through
	// another; the node encoded in the ID owns the stream throughout.
	sess, err := gw.OpenSession(ctx, prog.ID)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	home, _, ok := strings.Cut(sess.ID, "~")
	if !ok || tc.node(home) == nil {
		t.Fatalf("session ID %q does not encode a node", sess.ID)
	}
	other := rapclient.New(tc.servers[1].URL)
	if _, err := other.Session(sess.ID, prog.ID).Feed(ctx, []byte("al")); err != nil {
		t.Fatalf("feed via second gateway: %v", err)
	}
	fed, err := gw.Session(sess.ID, prog.ID).Feed(ctx, []byte("pha"))
	if err != nil {
		t.Fatalf("feed via first gateway: %v", err)
	}
	if fed.Count != 1 {
		t.Fatalf("cross-chunk feed count = %d, want the split alpha", fed.Count)
	}

	// --- Canary rollout, promote path: one replica staged first, then
	// the rest; the open session rides through untouched.
	inflight, err := gw.OpenSession(ctx, prog.ID)
	if err != nil {
		t.Fatalf("open in-flight session: %v", err)
	}
	if _, err := inflight.Feed(ctx, []byte("be")); err != nil {
		t.Fatalf("feed before rollout: %v", err)
	}
	var rollout cluster.RolloutResult
	if err := putUpdate(tc.servers[0].URL, prog.ID, []string{"alpha", "gamma"}, &rollout); err != nil {
		t.Fatalf("rollout: %v", err)
	}
	if rollout.Outcome != cluster.OutcomePromoted {
		t.Fatalf("rollout outcome = %q (reason %q), want promoted", rollout.Outcome, rollout.Reason)
	}
	if len(rollout.Canaries) != 1 || len(rollout.ReplicaSet) != 2 {
		t.Fatalf("rollout staged %v of %v, want 1 canary of 2 replicas", rollout.Canaries, rollout.ReplicaSet)
	}
	if rollout.DeltaBytes <= 0 || rollout.DeltaBytes >= rollout.FullImageBytes {
		t.Fatalf("rollout delta %d vs full %d: expected a partial RAPD delta", rollout.DeltaBytes, rollout.FullImageBytes)
	}
	// The in-flight session is pinned to its pre-update generation:
	// feeding and closing must still work, and the new ruleset serves
	// fresh scans on every replica.
	if _, err := inflight.Feed(ctx, []byte("ta")); err != nil {
		t.Fatalf("feed across rollout: %v", err)
	}
	if closed, err := inflight.Close(ctx); err != nil {
		t.Fatalf("close across rollout: %v", err)
	} else if closed.Summary.Matches != 1 {
		t.Fatalf("in-flight session matches = %d, want the split beta", closed.Summary.Matches)
	}
	for i, srv := range tc.servers {
		res, err := rapclient.New(srv.URL).Scan(ctx, prog.ID, []byte("gamma beta"))
		if err != nil {
			t.Fatalf("post-promote scan via n%d: %v", i, err)
		}
		if res.Count != 1 {
			t.Fatalf("post-promote scan via n%d = %d matches, want gamma only", i, res.Count)
		}
	}

	// --- Canary rollout, rollback path: the injected fault trips the
	// watch and every replica returns to the promoted ruleset.
	failCanary.Store(true)
	counts := map[string][2]int64{} // per node: patterns restored, compiled
	for _, n := range tc.nodes {
		st := n.Service().Stats().Reconfig
		counts[n.ID()] = [2]int64{st.PatternsRestored, st.PatternsCompiled}
	}
	var rolledBack cluster.RolloutResult
	if err := putUpdate(tc.servers[0].URL, prog.ID, []string{"delta"}, &rolledBack); err != nil {
		t.Fatalf("rollback rollout: %v", err)
	}
	failCanary.Store(false)
	if rolledBack.Outcome != cluster.OutcomeRolledBack {
		t.Fatalf("rollout outcome = %q, want rolled_back", rolledBack.Outcome)
	}
	if !strings.Contains(rolledBack.Reason, "injected canary fault") {
		t.Fatalf("rollback reason = %q, want the injected fault", rolledBack.Reason)
	}
	// The canary compiled the staged "delta"; the rollback's re-PUT of the
	// promoted ruleset restored both its patterns from the generation
	// "delta" displaced and compiled nothing.
	if len(rolledBack.Canaries) != 1 {
		t.Fatalf("rollout staged %v, want one canary", rolledBack.Canaries)
	}
	for _, id := range rolledBack.Canaries {
		st := tc.node(id).Service().Stats().Reconfig
		if restored, compiled := st.PatternsRestored-counts[id][0], st.PatternsCompiled-counts[id][1]; restored != 2 || compiled != 1 {
			t.Errorf("canary %s: stage and rollback restored %d and compiled %d patterns, want 2 and the staged 1", id, restored, compiled)
		}
	}
	res, err := gw.Scan(ctx, prog.ID, []byte("delta gamma"))
	if err != nil {
		t.Fatalf("post-rollback scan: %v", err)
	}
	if res.Count != 1 {
		t.Fatalf("post-rollback scan = %d matches, want gamma only (delta rolled back)", res.Count)
	}

	// --- Affinity survives a NON-owning node's departure: kill a node
	// that neither owns the session nor serves as our gateway.
	sess2, err := gw.OpenSession(ctx, prog.ID)
	if err != nil {
		t.Fatalf("open survivor session: %v", err)
	}
	home2, _, _ := strings.Cut(sess2.ID, "~")
	victim := -1
	for i := 1; i < 3; i++ { // never kill n0, it is the gateway
		if tc.nodes[i].ID() != home2 {
			victim = i
			break
		}
	}
	tc.kill(victim)
	waitConverged(t, tc, 2)
	if _, err := sess2.Feed(ctx, []byte("gam")); err != nil {
		t.Fatalf("feed after departure: %v", err)
	}
	fed2, err := sess2.Feed(ctx, []byte("ma!"))
	if err != nil {
		t.Fatalf("second feed after departure: %v", err)
	}
	if fed2.Count != 1 {
		t.Fatalf("post-departure feed count = %d, want the split gamma", fed2.Count)
	}
	if _, err := sess2.Close(ctx); err != nil {
		t.Fatalf("close after departure: %v", err)
	}
	// Scans keep flowing with the survivor set.
	if res, err := gw.Scan(ctx, prog.ID, []byte("gamma")); err != nil || res.Count != 1 {
		t.Fatalf("post-departure scan = %v, %v", res, err)
	}
}

// putUpdate PUTs a ruleset update and decodes the rollout response.
func putUpdate(base, programID string, patterns []string, out *cluster.RolloutResult) error {
	body, _ := json.Marshal(map[string]any{"patterns": patterns})
	req, err := http.NewRequest(http.MethodPut, base+"/v1/programs/"+programID, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestClusterHotFanOut: sustained scan pressure on one program widens
// its replica set up to MaxReplicas, and the new replica warms.
func TestClusterHotFanOut(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) {
		cfg.HotScanRate = 5
		cfg.MaxReplicas = 3
	})
	waitConverged(t, tc, 3)
	ctx := context.Background()
	gw := rapclient.New(tc.servers[0].URL)
	prog, err := gw.Compile(ctx, []string{"hot"}, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		for j := 0; j < 20; j++ {
			if _, err := gw.Scan(ctx, prog.ID, []byte("hot stuff")); err != nil {
				t.Fatalf("scan: %v", err)
			}
		}
		meta, _ := tc.nodes[0].Catalog().Get(prog.ID)
		if meta.Replicas == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas = %d after sustained load, want fan-out to 3", meta.Replicas)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, 5*time.Second, "fan-out replica warm-up", func() bool {
		for _, n := range tc.nodes {
			if _, ok := n.Service().Program(prog.ID); !ok {
				return false
			}
		}
		return true
	})
}

// TestClusterGossipCatalog: a program compiled through one node becomes
// known (and scannable) cluster-wide through digest gossip alone.
func TestClusterGossipCatalog(t *testing.T) {
	tc := startCluster(t, 3, nil)
	waitConverged(t, tc, 3)
	ctx := context.Background()

	prog, err := rapclient.New(tc.servers[2].URL).Compile(ctx, []string{"needle"}, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	waitFor(t, 5*time.Second, "catalog convergence", func() bool {
		for _, n := range tc.nodes {
			if _, ok := n.Catalog().Get(prog.ID); !ok {
				return false
			}
		}
		return true
	})
	// Placement replicas warm the program without ever seeing a scan.
	waitFor(t, 5*time.Second, "replica warm-up", func() bool {
		for _, id := range tc.nodes[0].Ring().Placement(prog.ID, 2) {
			if _, ok := tc.node(id).Service().Program(prog.ID); !ok {
				return false
			}
		}
		return true
	})
	for i, srv := range tc.servers {
		res, err := rapclient.New(srv.URL).Scan(ctx, prog.ID, []byte("hay needle hay"))
		if err != nil || res.Count != 1 {
			t.Fatalf("scan via n%d = %v, %v", i, res, err)
		}
	}
}
