// Cluster example: a three-node rapserve cluster in one process —
// gossip membership, consistent-hash placement, replica fan-out,
// node-sticky streaming sessions and a canary ruleset rollout — driven
// entirely through the typed /v1 client (pkg/rapclient). Any node is a
// gateway: requests are routed to the program's replica set, sessions
// stay pinned to the node that opened them, and a PUT update stages on
// a canary replica before promoting cluster-wide.
//
//	go run ./examples/cluster
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/pkg/rapclient"
)

func main() {
	ctx := context.Background()

	// Three nodes, each a full service plus the cluster layers. The
	// listeners exist before the nodes so every node can seed off all
	// three addresses.
	const size = 3
	nodes := make([]*cluster.Node, size)
	servers := make([]*httptest.Server, size)
	for i := range servers {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if nodes[i] == nil {
				http.Error(w, "node starting", http.StatusServiceUnavailable)
				return
			}
			nodes[i].Handler().ServeHTTP(w, r)
		}))
		defer servers[i].Close()
	}
	seeds := make([]string, size)
	for i, s := range servers {
		seeds[i] = s.URL
	}
	for i := range nodes {
		n, err := cluster.NewNode(cluster.Config{
			ID:             fmt.Sprintf("node%d", i+1),
			Seeds:          seeds,
			Replicas:       2,
			GossipInterval: 50 * time.Millisecond,
			Canary: cluster.CanaryConfig{
				Fraction: 0.34,
				Observe:  300 * time.Millisecond,
			},
			Service: service.Config{Workers: 1},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	for i, n := range nodes {
		n.Start(servers[i].URL)
	}
	waitFor(func() bool {
		for _, n := range nodes {
			if n.Ring().Size() != size {
				return false
			}
		}
		return true
	})
	fmt.Printf("cluster up: %d nodes on the ring\n\n", nodes[0].Ring().Size())

	// Compile through one gateway; the program lands on its
	// content-hash placement (owner + replica), wherever that is.
	gw := rapclient.New(servers[0].URL)
	prog, err := gw.Compile(ctx, []string{"alpha", "beta", "needle[0-9]+"}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s\n", prog.ID)
	fmt.Printf("placement: %v\n\n", nodes[0].Ring().Placement(prog.ID, 2))

	// Scan via every gateway: non-placement nodes proxy to a replica.
	for i, s := range servers {
		res, err := rapclient.New(s.URL).Scan(ctx, prog.ID, []byte("xx needle42 alpha yy"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scan via node%d: %d matches\n", i+1, len(res.Matches))
	}

	// Streaming sessions are node-sticky: the cluster session ID names
	// its home node, so a chunk fed through any gateway lands on the
	// same session state — matches span chunks and gateways.
	sess, err := gw.OpenSession(ctx, prog.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsession %s (home node encoded in the ID)\n", sess.ID)
	if _, err := sess.Feed(ctx, []byte("...al")); err != nil {
		log.Fatal(err)
	}
	other := rapclient.New(servers[1].URL).Session(sess.ID, prog.ID)
	fr, err := other.Feed(ctx, []byte("pha..."))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fed \"...al\" via node1, \"pha...\" via node2: %d cross-chunk match(es)\n", len(fr.Matches))
	if _, err := other.Close(ctx); err != nil {
		log.Fatal(err)
	}

	// Canary rollout: PUT stages the new ruleset on a fraction of the
	// replica set first, watches the canaries' health and the 5xx and
	// slow shares of the requests they finish, then promotes (or rolls
	// back). The coordinator needs the
	// program in its gossiped catalog first — wait for the gateway's
	// announcement of it to reach every node.
	waitFor(func() bool {
		for _, n := range nodes {
			if n.Catalog().Len() == 0 {
				return false
			}
		}
		return true
	})
	// The response is the single-node reconfigure report plus the
	// rollout verdict.
	body, _ := json.Marshal(map[string]any{"patterns": []string{"alpha", "gamma"}})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPut,
		servers[2].URL+"/v1/programs/"+prog.ID, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	var rollout cluster.RolloutResult
	if err := json.NewDecoder(resp.Body).Decode(&rollout); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nrollout: %s (staged %v of %v, delta %dB vs full image %dB)\n",
		rollout.Outcome, rollout.Canaries, rollout.ReplicaSet,
		rollout.DeltaBytes, rollout.FullImageBytes)

	res, err := gw.Scan(ctx, prog.ID, []byte("gamma alpha"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-rollout scan: %d matches for the new ruleset\n", len(res.Matches))
}

func waitFor(cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	log.Fatal("cluster did not converge")
}
