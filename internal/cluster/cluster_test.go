package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/pkg/rapclient"
)

// testCluster is an in-process cluster: each node behind a real HTTP
// server, so forwarding, gossip and canary stats fetches all cross a
// genuine network boundary. Every node runs on one manual clock: gossip,
// member aging, replica warm-up and the canary watch move only when the
// test advances it.
type testCluster struct {
	nodes   []*cluster.Node
	servers []*httptest.Server
	clock   *clock.Manual
}

// The nodes' GossipInterval, and the canary window (Observe, sampled
// every Observe/4), both at their defaults.
const (
	gossipInterval = time.Second
	canaryObserve  = 2 * time.Second
)

// Gossip rounds a 3-node cluster needs. News spreads on the announcing
// node's own exchanges, with no round: converge, for the rings to agree
// from a cold start, and spread, for a new program, a promoted generation
// or a new address to reach every node. warm: for a placement replica's
// own round to warm a program its catalog holds. gossiped: for what is not
// news, a wider replica set, to reach a new replica on the ticks and warm
// it there. depart: to drop a node that died; a survivor hears its last
// announcement at most two rounds after it died (relayed by the other
// survivor) and prunes it in the first of its rounds more than 10
// intervals after that.
const converge, spread, warm, gossiped, depart = 0, 0, 1, 2, 13

// rounds advances the clock by k gossip intervals: each node runs k
// gossip/reconcile rounds, and they have finished when it returns.
func (tc *testCluster) rounds(k int) {
	tc.clock.Advance(time.Duration(k) * gossipInterval)
}

// after runs k gossip rounds and fails the test unless cond then holds,
// or comes to hold while the announcements the nodes run on goroutines of
// their own finish, with no further round.
func (tc *testCluster) after(t *testing.T, k int, what string, cond func() bool) {
	t.Helper()
	tc.rounds(k)
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %s after %d gossip rounds", what, k)
		}
	}
}

// catalogued waits, with no gossip round, until every live node's catalog
// holds program id at generation gen or later.
func (tc *testCluster) catalogued(t *testing.T, id string, gen int64) {
	t.Helper()
	tc.after(t, spread, fmt.Sprintf("program %.8s at generation %d in every catalog", id, gen), func() bool {
		for _, n := range tc.nodes {
			if n == nil {
				continue
			}
			if meta, ok := n.Catalog().Get(id); !ok || meta.Generation < gen {
				return false
			}
		}
		return true
	})
}

// ringsAre runs k gossip rounds and fails unless every live node's ring
// then holds size members.
func (tc *testCluster) ringsAre(t *testing.T, k, size int) {
	t.Helper()
	tc.after(t, k, fmt.Sprintf("ring of %d nodes", size), func() bool {
		for _, n := range tc.nodes {
			if n != nil && n.Ring().Size() != size {
				return false
			}
		}
		return true
	})
}

// rollout PUTs an update through base and steps the clock through the
// canary window, which samples the canaries at its start and after each
// Observe/4; samples is how many times it is to sample them before the
// rollout answers, 5 for the whole window. Each step stops a millisecond
// short of the next sample, where the watch must still be waiting. A
// failed test cancels the request, which ends a watch left waiting.
func (tc *testCluster) rollout(t *testing.T, base, id string, patterns []string, samples int) (cluster.RolloutResult, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var out cluster.RolloutResult
	done := make(chan error, 1)
	go func() { done <- putUpdate(ctx, base, id, patterns, &out) }()
	for i := 1; i < samples; i++ {
		for _, step := range []time.Duration{canaryObserve/4 - time.Millisecond, time.Millisecond} {
			if answered, err := tc.next(done); answered {
				t.Fatalf("rollout answered (%v) after %d of %d canary samples", err, i, samples)
			}
			tc.clock.Advance(step)
		}
	}
	answered, err := tc.next(done)
	if !answered {
		t.Fatalf("canary watch still waiting after %d samples", samples)
	}
	return out, err
}

// next waits until the rollout answers on done, or its canary watch waits
// on the clock for the next sample, and reports which.
func (tc *testCluster) next(done <-chan error) (answered bool, err error) {
	armed := make(chan struct{})
	go func() {
		tc.clock.BlockUntil(1)
		close(armed)
	}()
	select {
	case err := <-done:
		return true, err
	case <-armed:
		return false, nil
	}
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

// startCluster brings up size nodes on one manual clock. mutate
// (optional) adjusts each node's config before construction.
func startCluster(t *testing.T, size int, mutate func(i int, cfg *cluster.Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		nodes:   make([]*cluster.Node, size),
		servers: make([]*httptest.Server, size),
		clock:   clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)),
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
			GossipInterval: gossipInterval,
		}
		cfg.Service.Workers = 1
		cfg.Service.Clock = tc.clock
		cfg.Canary.Observe = canaryObserve
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
	tc.ringsAre(t, converge, 3)

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
	// Once the replicas' rounds have warmed the program the gateway
	// announced, scans spread over the whole replica set round-robin.
	tc.catalogued(t, prog.ID, 0)
	tc.after(t, warm, "replica warm-up", func() bool {
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
	rollout, err := tc.rollout(t, tc.servers[0].URL, prog.ID, []string{"alpha", "gamma"}, 5)
	if err != nil {
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
	rolledBack, err := tc.rollout(t, tc.servers[0].URL, prog.ID, []string{"delta"}, 1)
	if err != nil {
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
	tc.ringsAre(t, depart, 2)
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
func putUpdate(ctx context.Context, base, programID string, patterns []string, out *cluster.RolloutResult) error {
	body, _ := json.Marshal(map[string]any{"patterns": patterns})
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, base+"/v1/programs/"+programID, strings.NewReader(string(body)))
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
// its replica set up to MaxReplicas, and the new replica warms. 20 scans
// through the gateway in one gossip interval are a rate of 20/s, over
// HotScanRate 5, so the gateway's next round widens the set by one.
func TestClusterHotFanOut(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) {
		cfg.HotScanRate = 5
		cfg.MaxReplicas = 3
	})
	tc.ringsAre(t, converge, 3)
	ctx := context.Background()
	gw := rapclient.New(tc.servers[0].URL)
	prog, err := gw.Compile(ctx, []string{"hot"}, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for j := 0; j < 20; j++ {
		if _, err := gw.Scan(ctx, prog.ID, []byte("hot stuff")); err != nil {
			t.Fatalf("scan: %v", err)
		}
	}
	tc.after(t, 1, "fan-out to 3 replicas", func() bool {
		meta, _ := tc.nodes[0].Catalog().Get(prog.ID)
		return meta.Replicas == 3
	})
	tc.after(t, gossiped, "fan-out replica warm-up", func() bool {
		for _, n := range tc.nodes {
			if _, ok := n.Service().Program(prog.ID); !ok {
				return false
			}
		}
		return true
	})
}

// TestClusterGossipCatalog: a program compiled through one node becomes
// known (and scannable) cluster-wide through the gateway's announcement.
func TestClusterGossipCatalog(t *testing.T) {
	tc := startCluster(t, 3, nil)
	tc.ringsAre(t, converge, 3)
	ctx := context.Background()

	prog, err := rapclient.New(tc.servers[2].URL).Compile(ctx, []string{"needle"}, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Placement replicas warm the program without ever seeing a scan.
	tc.catalogued(t, prog.ID, 0)
	tc.after(t, warm, "replica warm-up", func() bool {
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

// membersOf reads node i's /cluster/members view of member id: its state
// and when node i last heard it announce, and whether it is on node i's
// ring. known is false once the node has pruned it.
func membersOf(t *testing.T, tc *testCluster, i int, id string) (state string, lastSeen time.Time, known, onRing bool) {
	t.Helper()
	var view struct {
		Members []cluster.Member `json:"members"`
		Ring    []string         `json:"ring"`
	}
	if _, raw := do(t, "GET", tc.servers[i].URL+"/cluster/members", nil, false); json.Unmarshal(raw, &view) != nil {
		t.Fatalf("n%d members view %s", i, raw)
	}
	for _, m := range view.Members {
		if m.ID == id {
			state, lastSeen, known = m.State, m.LastSeen, true
		}
	}
	return state, lastSeen, known, slices.Contains(view.Ring, id)
}

// TestClusterMemberAging: a killed node ages out of each survivor's
// routing and then off its ring at exact rounds. Membership marks a member
// suspect when more than 3 gossip intervals have passed since this node
// last heard it announce (age > 3×GossipInterval), dead when more than 10
// have (age > 10×GossipInterval), and each survivor prunes once a round.
// So a survivor that last heard the node at round T still routes to it in
// its round T+3, not in T+4; keeps it on the ring through T+10 and drops
// it in T+11. n2 died after round 2, whose announcement it gossiped to n1;
// n0 heard that announcement relayed by n1 in round 3.
func TestClusterMemberAging(t *testing.T) {
	tc := startCluster(t, 3, nil)
	tc.ringsAre(t, converge, 3)
	tc.rounds(2)
	victim := tc.nodes[2].ID()
	tc.kill(2)
	start := tc.clock.Now()
	// Rounds after the kill at which each survivor last heard the victim,
	// found it suspect, and no longer knew it.
	var heard, suspect, dead [2]int
	for round := 1; round <= depart; round++ {
		tc.rounds(1)
		for i := range heard {
			state, lastSeen, known, onRing := membersOf(t, tc, i, victim)
			switch {
			case known && state == cluster.StateAlive:
				heard[i] = int(lastSeen.Sub(start) / gossipInterval)
			case known && state == cluster.StateSuspect && suspect[i] == 0:
				suspect[i] = round
			case !known && dead[i] == 0:
				dead[i] = round
			}
			if alive := known && state == cluster.StateAlive; alive == (suspect[i] > 0) || onRing != known {
				t.Fatalf("round %d: n%d sees %s %q (known %v, on ring %v), suspect since round %d", round, i, victim, state, known, onRing, suspect[i])
			}
		}
	}
	if want := [2]int{1, 0}; heard != want {
		t.Errorf("survivors last heard %s at rounds %v after its death, want %v", victim, heard, want)
	}
	if want := [2]int{heard[0] + 4, heard[1] + 4}; suspect != want {
		t.Errorf("survivors stopped routing to %s at rounds %v, want %v", victim, suspect, want)
	}
	if want := [2]int{heard[0] + 11, heard[1] + 11}; dead != want {
		t.Errorf("survivors dropped %s from their rings at rounds %v, want %v", victim, dead, want)
	}
}

// TestCanaryWindow: with Observe 2 s, and so a sample every 0.5 s, a
// promoted rollout samples its canary exactly 5 times, at 0, 0.5, 1, 1.5
// and 2 s of clock time, and does not answer before the 2 s have passed.
// A canary whose first sample fails rolls back after that one sample,
// with the clock standing still.
func TestCanaryWindow(t *testing.T) {
	var mu sync.Mutex
	var sampled []time.Time
	var fail atomic.Bool
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) {
		clk := cfg.Service.Clock
		cfg.Canary.Check = func(string, *rapclient.Stats) error {
			mu.Lock()
			sampled = append(sampled, clk.Now())
			mu.Unlock()
			if fail.Load() {
				return errors.New("injected canary fault")
			}
			return nil
		}
	})
	tc.ringsAre(t, converge, 3)
	id, _, _ := placed(t, tc, 2, []string{"alpha"})
	samples := func() (out []time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		for _, at := range sampled {
			out = append(out, at.Sub(sampled[0]))
		}
		sampled = nil
		return out
	}

	start := tc.clock.Now()
	promoted, err := tc.rollout(t, tc.servers[0].URL, id, []string{"beta"}, 5)
	if err != nil || promoted.Outcome != cluster.OutcomePromoted {
		t.Fatalf("rollout = %+v, %v; want promoted", promoted, err)
	}
	if got := tc.clock.Now().Sub(start); got != canaryObserve {
		t.Errorf("rollout answered after %v of clock time, want %v", got, canaryObserve)
	}
	if got, want := fmt.Sprint(samples()), "[0s 500ms 1s 1.5s 2s]"; got != want {
		t.Errorf("canary sampled at %s, want %s", got, want)
	}

	fail.Store(true)
	rolledBack, err := tc.rollout(t, tc.servers[0].URL, id, []string{"gamma"}, 1)
	if err != nil || rolledBack.Outcome != cluster.OutcomeRolledBack {
		t.Fatalf("rollout = %+v, %v; want rolled back", rolledBack, err)
	}
	if got := samples(); len(got) != 1 {
		t.Errorf("failing canary sampled %d times, want 1", len(got))
	}
}
