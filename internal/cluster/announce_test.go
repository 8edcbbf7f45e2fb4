package cluster_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/pkg/rapclient"
)

// gossipsAre waits, with no gossip round, until the nodes have initiated
// want exchanges between them, and fails as soon as they pass it.
func (tc *testCluster) gossipsAre(t *testing.T, want float64) {
	t.Helper()
	tc.after(t, 0, "exchanges", func() bool {
		var got float64
		for i, n := range tc.nodes {
			if n != nil {
				got += metric(t, tc.servers[i].URL, "rap_node_gossip_total")
			}
		}
		if got > want {
			t.Fatalf("%v gossip exchanges, want %v", got, want)
		}
		return got == want
	})
}

// untilClosed is a GossipInterval no test reaches: every change these
// tests see comes from an announcement, none from a tick.
const untilClosed = time.Hour

// TestClusterStartAnnounces: each node's Start exchanges views with every
// seed, so a cold 3-node cluster puts all three members on every ring
// before any gossip round, for one exchange per seed.
func TestClusterStartAnnounces(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) { cfg.GossipInterval = untilClosed })
	tc.ringsAre(t, 0, 3)
	tc.gossipsAre(t, 3*2)
}

// TestClusterCompileAnnounces: a program compiled through a gateway that
// does not own it reaches every catalog before any gossip round, for one
// exchange per peer of the gateway; the owner it forwarded to announces
// nothing, nor does a second compile of the same program.
func TestClusterCompileAnnounces(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) { cfg.GossipInterval = untilClosed })
	tc.ringsAre(t, converge, 3)
	tc.gossipsAre(t, 3*2)
	patterns := []string{"needle", "hay+stack"}
	owner := tc.nodes[0].Ring().Owner(service.ProgramKey(patterns, service.CompileOptions{}))
	gw := slices.IndexFunc(tc.nodes, func(n *cluster.Node) bool { return n.ID() != owner })
	cl := rapclient.New(tc.servers[gw].URL)
	prog, err := cl.Compile(context.Background(), patterns, nil)
	if err != nil {
		t.Fatalf("compile via n%d: %v", gw, err)
	}
	tc.catalogued(t, prog.ID, 0)
	tc.gossipsAre(t, 3*2+2)
	if again, err := cl.Compile(context.Background(), patterns, nil); err != nil || !again.CacheHit {
		t.Fatalf("second compile = %+v, %v; want a cache hit", again, err)
	}
	tc.gossipsAre(t, 3*2+2)
}

// TestClusterPromoteAnnounces: a promoted rollout puts its new generation
// in every catalog before any gossip round, the catalog of the node
// outside the placement included.
func TestClusterPromoteAnnounces(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) { cfg.GossipInterval = untilClosed })
	tc.ringsAre(t, converge, 3)
	prog, err := rapclient.New(tc.servers[0].URL).Compile(context.Background(), []string{"alpha"}, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tc.catalogued(t, prog.ID, 0)
	promoted, err := tc.rollout(t, tc.servers[1].URL, prog.ID, []string{"beta"}, 5)
	if err != nil || promoted.Outcome != cluster.OutcomePromoted {
		t.Fatalf("rollout = %+v, %v; want promoted", promoted, err)
	}
	tc.catalogued(t, prog.ID, promoted.ClusterGeneration)
}

// TestClusterQuietGossip: with nothing new — Seq bumps, warm-ups, scans
// and their rates only — each node initiates exactly one exchange a round,
// as it did before announcements existed.
func TestClusterQuietGossip(t *testing.T) {
	tc := startCluster(t, 3, nil)
	tc.ringsAre(t, converge, 3)
	ctx := context.Background()
	gw := rapclient.New(tc.servers[0].URL)
	prog, err := gw.Compile(ctx, []string{"quiet"}, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tc.catalogued(t, prog.ID, 0)
	want := float64(3*2 + 2) // the Starts and the compile
	tc.gossipsAre(t, want)
	const rounds = 6
	for r := 0; r < rounds; r++ {
		if _, err := gw.Scan(ctx, prog.ID, []byte("a quiet scan")); err != nil {
			t.Fatalf("scan: %v", err)
		}
		tc.rounds(1)
	}
	tc.gossipsAre(t, want+3*rounds)
}

// TestClusterMutePeerDelaysNoNews: a seed that accepts connections and
// never answers holds its own exchanges only, so a program compiled after
// the start, while the start's exchange with the mute seed still waits,
// reaches every catalog at once, not a GossipInterval later.
func TestClusterMutePeerDelaysNoNews(t *testing.T) {
	mute := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer mute.Close()
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) {
		cfg.GossipInterval = untilClosed
		cfg.Seeds = append([]string{mute.URL}, cfg.Seeds...)
	})
	tc.ringsAre(t, converge, 3)
	start := time.Now()
	prog, err := rapclient.New(tc.servers[0].URL).Compile(context.Background(), []string{"mute"}, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tc.catalogued(t, prog.ID, 0)
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the compile reached every catalog after %v", took)
	}
	for i := range tc.nodes {
		tc.kill(i)
	}
}

// nodeGoroutines returns the stacks of the goroutines running a Node
// method.
func nodeGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("repro/internal/cluster.(*Node)")) {
			out = append(out, string(g))
		}
	}
	return out
}

// TestClusterCloseWaitsForAnnouncements: Close ends the exchanges a node
// has in flight and waits for them. Every node's Start also pushes to a
// seed that never answers, so its round of exchanges waits until Close;
// once the nodes are closed none of their goroutines is left, and the
// process returns to its goroutine count from before the cluster.
func TestClusterCloseWaitsForAnnouncements(t *testing.T) {
	base := runtime.NumGoroutine()
	mute := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // a read body lets the server see the client hang up
		<-r.Context().Done()
	}))
	defer mute.Close()
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) {
		cfg.GossipInterval = untilClosed
		cfg.Seeds = append([]string{mute.URL}, cfg.Seeds...)
	})
	tc.ringsAre(t, converge, 3)
	tc.gossipsAre(t, 3*3)
	for i := range tc.nodes {
		tc.kill(i)
	}
	if left := nodeGoroutines(); len(left) > 0 {
		t.Fatalf("%d node goroutines outlived Close:\n%s", len(left), strings.Join(left, "\n\n"))
	}
	mute.Close()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the cluster", runtime.NumGoroutine(), base)
		}
	}
}
