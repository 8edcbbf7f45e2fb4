package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/input"
	"repro/internal/service"
	"repro/pkg/rapclient"
)

// reply is what the differential compares of one response.
type reply struct {
	status int
	ctype  string
	traced bool // X-Trace-Id present
	body   string
}

// sessionIDs matches a session ID as a bare service ("sess-3") or a
// cluster ("n1~sess-3") issues it; replies carry "SID" in its place.
var sessionIDs = regexp.MustCompile(`([a-z0-9]+~)?sess-[0-9]+`)

// do sends one request, its body under a Content-Length or chunked.
func do(t *testing.T, method, url string, body []byte, chunked bool) (reply, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
		if chunked {
			rd = struct{ io.Reader }{rd} // a length http cannot see
		}
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read: %v", method, url, err)
	}
	// The JSON value, not its spelling: the control plane re-encodes what
	// it rewrites (key order, no trailing newline).
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("%s %s: body %q: %v", method, url, raw, err)
	}
	canon, _ := json.Marshal(v)
	return reply{
		status: resp.StatusCode,
		ctype:  resp.Header.Get("Content-Type"),
		traced: resp.Header.Get("X-Trace-Id") != "",
		body:   sessionIDs.ReplaceAllString(string(canon), "SID"),
	}, raw
}

// placed compiles patterns through node 0 of tc, runs the gossip rounds
// that warm every replica, and returns its ID, the replicas' node indexes
// in placement order and the index of a node outside the placement.
func placed(t *testing.T, tc *testCluster, replicas int, patterns []string) (id string, repl []int, gateway int) {
	t.Helper()
	prog, err := rapclient.New(tc.servers[0].URL).Compile(context.Background(), patterns, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	index := map[string]int{}
	for i, n := range tc.nodes {
		index[n.ID()] = i
	}
	for _, p := range tc.nodes[0].Ring().Placement(prog.ID, replicas) {
		repl = append(repl, index[p])
		delete(index, p)
	}
	for _, i := range index {
		gateway = i
	}
	tc.catalogued(t, prog.ID, 0)
	tc.after(t, warm, "replica warm-up", func() bool {
		for _, i := range repl {
			if _, ok := tc.nodes[i].Service().Program(prog.ID); !ok {
				return false
			}
		}
		return true
	})
	return prog.ID, repl, gateway
}

// metric reads one sample of a node's /metrics (0 when absent).
func metric(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			var v float64
			fmt.Sscan(rest, &v)
			return v
		}
	}
	return 0
}

// TestProxyDifferential: the same request answered through a gateway
// outside the placement, by the program's owner, and by a bare
// service.Service must be the same response — status, JSON body (session
// IDs aside), Content-Type, X-Trace-Id — with the body sent both ways, on
// every data-plane path: resident, repaired, unknown, a dead first replica;
// local and remote feeds; a departed session node.
func TestProxyDifferential(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) {
		cfg.HotScanRate = 1e9
		cfg.Service.ProgramCacheSize = 2
	})
	tc.ringsAre(t, converge, 3)
	ctx := context.Background()
	patterns := []string{"alpha", "beta", "end$"}
	id, repl, gw := placed(t, tc, 2, patterns)
	owner, second := repl[0], repl[1]

	bareSvc := service.New(service.Config{Workers: 1})
	defer bareSvc.Close()
	bare := httptest.NewServer(bareSvc.Handler())
	defer bare.Close()
	if _, _, err := bareSvc.Compile(ctx, patterns, service.CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	// The three ways in, in the order every row reports them.
	names := []string{"gateway", "owner", "bare"}
	bases := []string{tc.servers[gw].URL, tc.servers[owner].URL, bare.URL}

	// same sends one request per way in (path may differ by session ID)
	// and fails unless the three replies agree; loose compares status and
	// Content-Type only. It returns the raw bodies.
	same := func(t *testing.T, chunked, loose bool, method string, paths [3]string, body []byte) [3][]byte {
		t.Helper()
		var replies [3]reply
		var raws [3][]byte
		for i := range bases {
			replies[i], raws[i] = do(t, method, bases[i]+paths[i], body, chunked)
			if loose {
				replies[i].body, replies[i].traced = "", false
			}
		}
		for i := range names[:2] {
			if replies[i] != replies[2] {
				t.Errorf("%s %s via %s = %+v\n  bare service = %+v", method, paths[i], names[i], replies[i], replies[2])
			}
		}
		return raws
	}
	all := func(path string) [3]string { return [3]string{path, path, path} }
	evict := func() {
		for _, i := range repl {
			for j := 0; j < 2; j++ {
				filler := []string{fmt.Sprintf("filler%d%d", i, j)}
				if _, _, err := tc.nodes[i].Service().Compile(ctx, filler, service.CompileOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	input := []byte("alpha then beta, then the end")

	for _, chunked := range []bool{false, true} {
		t.Run(fmt.Sprintf("chunked=%v", chunked), func(t *testing.T) {
			scan := all("/v1/programs/" + id + "/scan")
			raws := same(t, chunked, false, "POST", scan, input)
			var res struct{ Count int }
			if json.Unmarshal(raws[0], &res); res.Count != 3 {
				t.Fatalf("resident scan = %s, want 3 matches", raws[0])
			}
			// Evicted on both replicas: the terminal hop repairs from the
			// catalog before it serves (or the reconciler beat it to it).
			evict()
			same(t, chunked, false, "POST", scan, input)
			evict()
			raws = same(t, chunked, false, "POST", scan, input)
			if json.Unmarshal(raws[1], &res); res.Count != 3 {
				t.Fatalf("repaired scan = %s, want 3 matches", raws[1])
			}
			raws = same(t, chunked, false, "POST", all("/v1/programs/feedface/scan"), input)
			if !strings.Contains(string(raws[0]), "not found") {
				t.Fatalf("unknown program = %s", raws[0])
			}

			// A session opened while no replica holds the program is repaired
			// where it lands (the parent answered the owner's own with 404).
			open, _ := json.Marshal(map[string]string{"program_id": id})
			evict()
			same(t, chunked, false, "POST", all("/v1/sessions"), open)

			// One session per way in. With the program back on both replicas
			// the gateway's lands on one of them, so its feeds are remote,
			// and the owner's own are local.
			for _, i := range repl {
				if _, _, err := tc.nodes[i].Service().Compile(ctx, patterns, service.CompileOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			raws = same(t, chunked, false, "POST", all("/v1/sessions"), open)
			var sess [3]string
			for i, raw := range raws {
				var o struct {
					SessionID string `json:"session_id"`
				}
				if json.Unmarshal(raw, &o); o.SessionID == "" {
					t.Fatalf("open via %s = %s", names[i], raw)
				}
				sess[i] = "/v1/sessions/" + o.SessionID
			}
			if strings.Contains(sess[0], tc.nodes[gw].ID()+"~") || !strings.Contains(sess[1], tc.nodes[owner].ID()+"~") {
				t.Fatalf("sessions %v: want the gateway's remote and the owner's local", sess)
			}
			data := [3]string{sess[0] + "/data", sess[1] + "/data", sess[2] + "/data"}
			same(t, chunked, false, "POST", data, input[:3])
			raws = same(t, chunked, false, "POST", data, input[3:])
			if json.Unmarshal(raws[0], &res); res.Count != 2 {
				t.Fatalf("second feed = %s, want the split alpha and beta", raws[0])
			}
			raws = same(t, chunked, false, "DELETE", sess, nil)
			if json.Unmarshal(raws[0], &res); res.Count != 1 {
				t.Fatalf("close = %s, want the end-anchored match", raws[0])
			}
			same(t, chunked, false, "POST", data, input) // closed: 404 from the session's node
		})
	}

	// A session on the second replica, which then dies. The clock stands
	// still, so the survivors still route to it: scans whose first replica
	// it is fall through.
	var doomed struct {
		SessionID string `json:"session_id"`
	}
	open, _ := json.Marshal(map[string]string{"program_id": id})
	_, raw := do(t, "POST", tc.servers[second].URL+"/v1/sessions", open, false)
	if json.Unmarshal(raw, &doomed); !strings.HasPrefix(doomed.SessionID, tc.nodes[second].ID()+"~") {
		t.Fatalf("session opened at %s = %s", tc.nodes[second].ID(), raw)
	}
	tc.kill(second)
	refused := `rap_node_forward_duration_us_count{outcome="bad_gateway"}`
	before := metric(t, bases[0], refused)
	for i := 0; i < 4; i++ {
		same(t, i%2 == 1, false, "POST", all("/v1/programs/"+id+"/scan"), input)
	}
	if metric(t, bases[0], refused) == before {
		t.Errorf("no forward to the dead first replica was recorded")
	}
	tc.ringsAre(t, depart, 2)
	for _, chunked := range []bool{false, true} {
		gone := "/v1/sessions/" + doomed.SessionID + "/data"
		raws := same(t, chunked, true, "POST", [3]string{gone, gone, "/v1/sessions/sess-999/data"}, input)
		if !strings.Contains(string(raws[0]), "has left the cluster") {
			t.Errorf("feed to a departed node = %s", raws[0])
		}
	}
}

// rawRequest writes head (request line and headers) and body to a new
// connection to base, half-closes it, and returns the response status (0
// when the server sent none).
func rawRequest(t *testing.T, base, head string, body []byte) int {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(append([]byte(head+"\r\n"), body...)); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestProxyBodyLimits: a gateway enforces the serving node's body limit on
// every routed path — from Content-Length before it reads a byte, from the
// byte count on a chunked body — and answers a body that ends early with
// 400 where it buffers.
func TestProxyBodyLimits(t *testing.T) {
	tc := startCluster(t, 3, nil)
	tc.ringsAre(t, converge, 3)
	id, repl, gw := placed(t, tc, 2, []string{"needle"})
	base := tc.servers[gw].URL
	sess, err := rapclient.New(base).OpenSession(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sess.ID, tc.nodes[repl[0]].ID()+"~") {
		t.Fatalf("session %s is not remote from the gateway", sess.ID)
	}
	routes := []struct {
		name, line          string
		tooLarge, truncated int
	}{
		{"compile", "POST /v1/programs", 413, 400},
		{"update", "PUT /v1/programs/" + id, 413, 400},
		{"scan", "POST /v1/programs/" + id + "/scan", 413, 400},
		{"open", "POST /v1/sessions", 413, 400},
		// Streamed, not buffered: the broken body surfaces as a failed forward.
		{"feed", "POST /v1/sessions/" + sess.ID + "/data", 413, 502},
		// No body is read on a close: its length is nobody's business.
		{"close", "DELETE /v1/sessions/" + tc.nodes[repl[0]].ID() + "~sess-999", 404, 404},
	}
	for _, rt := range routes {
		// Only the headers are sent: a gateway that waited for the body
		// before refusing would sit out the deadline.
		head := fmt.Sprintf("%s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n", rt.line, input.MaxBody+1)
		if got := rawRequest(t, base, head, nil); got != rt.tooLarge {
			t.Errorf("%s with Content-Length over the limit = %d, want %d", rt.name, got, rt.tooLarge)
		}
		head = fmt.Sprintf("%s HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n", rt.line)
		if got := rawRequest(t, base, head, []byte("needle")); got != rt.truncated {
			t.Errorf("%s with 6 bytes under Content-Length 100 = %d, want %d", rt.name, got, rt.truncated)
		}
	}
	if testing.Short() {
		return
	}
	big := make([]byte, input.MaxBody+1)
	for _, path := range []string{"/v1/programs/" + id + "/scan", "/v1/sessions/" + sess.ID + "/data"} {
		if got, raw := do(t, "POST", base+path, big, true); got.status != 413 {
			t.Errorf("%s with a chunked body over the limit = %d %s, want 413", path, got.status, raw)
		}
	}
	// The session survived the refused and the broken feeds.
	if fed, err := sess.Feed(context.Background(), []byte("a needle")); err != nil || fed.Count != 1 {
		t.Errorf("feed after the refused ones = %+v, %v", fed, err)
	}
}

// TestGatewayRefusesTrailingBytes: a compile body with bytes after its
// JSON value, sent through each node of a 3-node cluster with one replica,
// is answered 400 and compiled nowhere. A gateway that cannot route a body
// hands it to its own service, which must refuse it as the gateway did
// rather than compile it where no other node looks for it.
func TestGatewayRefusesTrailingBytes(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) { cfg.Replicas = 1 })
	tc.ringsAre(t, converge, 3)
	for i, srv := range tc.servers {
		if got, raw := do(t, "POST", srv.URL+"/v1/programs", []byte(`{"patterns":["abc"]} trailing`), false); got.status != http.StatusBadRequest {
			t.Errorf("n%d: compile with trailing bytes = %d %s, want 400", i, got.status, raw)
		}
	}
	id := service.ProgramKey([]string{"abc"}, service.CompileOptions{})
	for _, n := range tc.nodes {
		if _, ok := n.Service().Program(id); ok {
			t.Errorf("%s holds the refused program", n.ID())
		}
	}
}

// TestNegativeOptionsRefused: a compile whose linear_budget_factor,
// unfold_threshold or max_nfa_states is negative is answered 400 by a bare
// node and through every gateway of a 3-node cluster. A negative
// dfa_state_cap keeps its meaning (no DFA path) and compiles.
func TestNegativeOptionsRefused(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) { cfg.Replicas = 1 })
	tc.ringsAre(t, converge, 3)
	bareSvc := service.New(service.Config{Workers: 1})
	defer bareSvc.Close()
	bare := httptest.NewServer(bareSvc.Handler())
	defer bare.Close()
	bases := []string{bare.URL}
	for _, srv := range tc.servers {
		bases = append(bases, srv.URL)
	}
	for opt, want := range map[string]int{
		"linear_budget_factor": http.StatusBadRequest,
		"unfold_threshold":     http.StatusBadRequest,
		"max_nfa_states":       http.StatusBadRequest,
		"dfa_state_cap":        http.StatusOK,
	} {
		body := []byte(`{"patterns":["abc"],"options":{"` + opt + `":-1}}`)
		for _, base := range bases {
			if got, raw := do(t, "POST", base+"/v1/programs", body, false); got.status != want {
				t.Errorf("%s: compile with %s -1 = %d %s, want %d", base, opt, got.status, raw, want)
			}
		}
	}
}

// TestGatewayAndNodeDeriveOneKey: a compile body in any spelling — escapes,
// key order, white space, unknown keys — is read by a gateway and by the
// node it routes to as one ruleset. The node answers the program ID
// ProgramKey gives encoding/json's reading of the body, the ring owner of
// that ID holds the program, and the gateway catalogued it under the same
// ID, from every node of a 3-node cluster with one replica.
func TestGatewayAndNodeDeriveOneKey(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) { cfg.Replicas = 1 })
	tc.ringsAre(t, converge, 3)
	for _, body := range []string{
		`{"patterns":["cat","dog"],"options":{}}`,
		`{"options":{"unfold_threshold":12},"patterns":["c\u0061t","d\/og"]}`,
		"  {\"patterns\" : [ \"cat\" , \"ab{2,5}c\" ] ,\n \"options\" : { } }  \n",
		`{"patterns":["cat"],"options":{"mode_policy":"force_nfa","unfold_threshold":3},"comment":"x"}`,
		`{"patterns":["\u00e9t\u00e9","x\ty","\ud83d\ude00"],"extra":[1,2]}`,
		`{"Patterns":["cat"],"OPTIONS":{"Unfold_Threshold":7}}`,
	} {
		var rs service.Ruleset
		if err := json.Unmarshal([]byte(body), &rs); err != nil {
			t.Fatal(err)
		}
		want := service.ProgramKey(rs.Patterns, rs.Options)
		owner := tc.node(tc.nodes[0].Ring().Placement(want, 1)[0])
		for i, srv := range tc.servers {
			got, raw := do(t, "POST", srv.URL+"/v1/programs", []byte(body), false)
			var resp struct {
				ProgramID string `json:"program_id"`
			}
			if err := json.Unmarshal(raw, &resp); err != nil || got.status != http.StatusOK || resp.ProgramID != want {
				t.Fatalf("n%d: %s: %d %s, want program %s", i, body, got.status, raw, want)
			}
			if _, ok := owner.Service().Program(want); !ok {
				t.Errorf("n%d: %s: the ring owner %s does not hold %s", i, body, owner.ID(), want)
			}
			if meta, _ := do(t, "GET", srv.URL+"/cluster/programs/"+want, nil, false); meta.status != http.StatusOK {
				t.Errorf("n%d: %s: the gateway has no catalog entry for %s (%d)", i, body, want, meta.status)
			}
		}
	}
}

// TestRepairFirstCountsOnce: on one node whose cache holds two of three
// programs, round-robin scans miss every time, and each costs exactly one
// repair — the count TestShardedWorkingSetStaysResident reads on its 1-node
// side.
func TestRepairFirstCountsOnce(t *testing.T) {
	// The clock stands still: no reconciler round warms behind the scans.
	tc := startCluster(t, 1, func(i int, cfg *cluster.Config) {
		cfg.Service.ProgramCacheSize = 2
	})
	ctx := context.Background()
	cl := rapclient.New(tc.servers[0].URL)
	var ids []string
	for i := 0; i < 3; i++ {
		prog, err := cl.Compile(ctx, []string{fmt.Sprintf("word%d", i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, prog.ID)
	}
	const scans = 9
	for i := 0; i < scans; i++ {
		res, err := cl.Scan(ctx, ids[i%3], []byte(fmt.Sprintf("a word%d here", i%3)))
		if err != nil || res.Count != 1 {
			t.Fatalf("scan %d = %+v, %v", i, res, err)
		}
	}
	if got := metric(t, tc.servers[0].URL, "rap_node_repairs_total"); got != scans {
		t.Errorf("rap_node_repairs_total = %v after %d scans that each missed, want %d", got, scans, scans)
	}
}

// TestShardedWorkingSetStaysResident is the cluster's capacity claim as a
// counter: 12 programs do not fit one node's program cache, so a node on
// its own recompiles on every sweep, while three nodes with the same cache
// each hold their ring share and a warm sweep repairs nothing anywhere.
func TestShardedWorkingSetStaysResident(t *testing.T) {
	const programs, nodes = 12, 3
	// Program IDs are content hashes, so the placement — and the cache
	// that exactly fits the fullest node — is known before anything runs.
	ring := cluster.NewRing(0)
	for i := 0; i < nodes; i++ {
		ring.Add(fmt.Sprintf("n%d", i))
	}
	rulesets, share, cache := make([][]string, programs), map[string]int{}, 0
	for i := range rulesets {
		rulesets[i] = []string{fmt.Sprintf("resident%02d", i)}
		owner := ring.Owner(service.ProgramKey(rulesets[i], service.CompileOptions{}))
		if share[owner]++; share[owner] > cache {
			cache = share[owner]
		}
	}
	if cache >= programs {
		t.Fatalf("ring put all %d programs on one node: %v", programs, share)
	}

	// swept brings up a cluster of the given size, compiles the working
	// set, sweeps it once to warm and once more through every gateway in
	// turn, and returns what the second sweep added to each node's
	// rap_node_repairs_total.
	swept := func(size int) []float64 {
		tc := startCluster(t, size, func(i int, cfg *cluster.Config) {
			cfg.Replicas = 1
			cfg.HotScanRate = -1 // fixed placement: no fan-out onto a second cache
			cfg.Service.ProgramCacheSize = cache
		})
		tc.ringsAre(t, converge, size)
		ctx := context.Background()
		gateways := make([]*rapclient.Client, size)
		for i, s := range tc.servers {
			gateways[i] = rapclient.New(s.URL)
		}
		var ids []string
		for _, rs := range rulesets {
			prog, err := gateways[0].Compile(ctx, rs, nil)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, prog.ID)
		}
		tc.after(t, spread, "catalog convergence", func() bool {
			for _, n := range tc.nodes {
				if n.Catalog().Len() != programs {
					return false
				}
			}
			return true
		})
		sweep := func() {
			for i, id := range ids {
				res, err := gateways[i%size].Scan(ctx, id, []byte("a "+rulesets[i][0]+" here"))
				if err != nil || res.Count != 1 {
					t.Fatalf("%d-node scan of program %d = %+v, %v", size, i, res, err)
				}
			}
		}
		repairs := func() []float64 {
			out := make([]float64, size)
			for i, s := range tc.servers {
				out[i] = metric(t, s.URL, "rap_node_repairs_total")
			}
			return out
		}
		// The clock stands still: no reconciler round warms behind the sweeps.
		sweep()
		before := repairs()
		sweep()
		added := repairs()
		for i := range added {
			added[i] -= before[i]
		}
		return added
	}

	for i, got := range swept(nodes) {
		if got != 0 {
			t.Errorf("node n%d of %d repaired %v programs on a warm sweep with a %d-slot cache, want 0 (shares %v)", i, nodes, got, cache, share)
		}
	}
	if got := swept(1)[0]; got < float64(programs-cache) {
		t.Errorf("one node with a %d-slot cache repaired %v of %d programs on a warm sweep, want at least the %d it had to evict", cache, got, programs, programs-cache)
	}
}

// TestRepairReusesOriginalRuleset: a replica that lost an updated program
// repairs it by compiling the ID-defining ruleset and hot-swapping to the
// live one (Node.ensureLocal). That swap is an incremental update like any
// other — it takes from the original every pattern the two rulesets share —
// and the repaired replica answers what the owner answers.
func TestRepairReusesOriginalRuleset(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) {
		cfg.Service.ProgramCacheSize = 2
	})
	tc.ringsAre(t, converge, 3)
	ctx := context.Background()
	original := []string{"alpha", "be+ta", "ga{20,40}mma", "(x|yz)*w", "delta$"}
	live := []string{"alpha", "be+ta", "ga{20,40}mma", "(x|yz)*w", "epsilon"}
	id, repl, _ := placed(t, tc, 2, original)
	owner, second := tc.nodes[repl[0]], tc.nodes[repl[1]]
	rollout, err := tc.rollout(t, tc.servers[repl[0]].URL, id, live, 5)
	if err != nil || rollout.Outcome != cluster.OutcomePromoted {
		t.Fatalf("rollout = %+v, %v", rollout, err)
	}
	tc.after(t, spread, "the promoted ruleset in the replica's catalog", func() bool {
		meta, ok := second.Catalog().Get(id)
		return ok && meta.Generation == rollout.ClusterGeneration
	})

	before := second.Service().Stats().Reconfig.PatternsReused
	for j := 0; j < 2; j++ { // push the program out of the replica's two-slot cache
		if _, _, err := second.Service().Compile(ctx, []string{fmt.Sprintf("filler%d", j)}, service.CompileOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	body := []byte("alpha beeeta g" + strings.Repeat("a", 30) + "mma yzxw epsilon delta")
	req, err := http.NewRequest(http.MethodPost, tc.servers[repl[1]].URL+"/v1/programs/"+id+"/scan", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.ForwardedHeader, "test") // served where it lands: by the replica, repaired
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan on the repaired replica: HTTP %d", resp.StatusCode)
	}
	// The scan's repair, or the reconciler's if that came first: either is
	// ensureLocal, and its update finds four of five patterns compiled.
	if reused := second.Service().Stats().Reconfig.PatternsReused - before; reused < 4 {
		t.Errorf("repair's update reused %d patterns, want the 4 the live ruleset shares with the original", reused)
	}
	want, err := owner.Service().Scan(ctx, id, body)
	if err != nil || len(want) != 5 {
		t.Fatalf("owner scan = %v, %v; want 5 matches", want, err)
	}
	if got, err := second.Service().Scan(ctx, id, body); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("repaired replica matches %v (err %v), owner %v", got, err, want)
	}
}

// TestGatewayScanAllocBytes: a 256 KiB scan through a gateway and its owner
// allocates a small fraction of its body — the buffers are pooled and the
// response streams. (The parent commit allocated 2.8 MB an op.)
func TestGatewayScanAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	tc := startCluster(t, 3, func(i int, cfg *cluster.Config) {
		cfg.Replicas, cfg.HotScanRate = 1, -1
	})
	tc.ringsAre(t, converge, 3)
	id, _, gw := placed(t, tc, 1, []string{"needle", "hay+stack"})
	body := bytes.Repeat([]byte("no match in sight, nothing here "), 8<<10)
	copy(body[len(body)/2:], "a needle")
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	cl := rapclient.New(tc.servers[gw].URL, rapclient.WithHTTPClient(hc))
	scan := func(n int) {
		for i := 0; i < n; i++ {
			res, err := cl.Scan(context.Background(), id, body)
			if err != nil || res.Count != 1 {
				t.Fatalf("scan = %+v, %v", res, err)
			}
		}
	}
	scan(20)
	// The best of three windows: a collection that empties the pools in
	// mid-window is the runtime's doing, not the data plane's.
	const ops = 200
	best := uint64(1 << 62)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		scan(ops)
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/ops)
	}
	t.Logf("%d B allocated per %d B scan through gateway and owner", best, len(body))
	if best > 96<<10 {
		t.Errorf("%d B allocated per scan, want under %d", best, 96<<10)
	}
}

// TestForwardConnectionReuse: the node's transport keeps a burst's worth of
// connections to a peer, so a second wave of 16 concurrent forwards dials
// nothing (http.DefaultTransport kept 2 and redialled the other 14).
func TestForwardConnectionReuse(t *testing.T) {
	const wave = 16
	var dials atomic.Int32
	// arrived holds every forwarded scan at the owner until the whole wave
	// is there, so that the wave needs that many connections at once.
	var arrived atomic.Pointer[sync.WaitGroup]
	tc := startCluster(t, 2, func(i int, cfg *cluster.Config) { cfg.Replicas, cfg.HotScanRate = 1, -1 })
	tc.ringsAre(t, converge, 2)
	id, repl, _ := placed(t, tc, 1, []string{"needle"})
	owner, gw := repl[0], 1-repl[0]
	front := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(cluster.ForwardedHeader) != "" && strings.HasSuffix(r.URL.Path, "/scan") {
			wg := arrived.Load()
			wg.Done()
			wg.Wait()
		}
		tc.nodes[owner].Handler().ServeHTTP(w, r)
	}))
	front.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	front.Start()
	defer front.Close()
	// Re-advertise the owner behind the counting front.
	tc.nodes[owner].Start(front.URL)
	tc.after(t, spread, "the owner's new address at the gateway", func() bool {
		var view struct {
			Members []cluster.MemberInfo `json:"members"`
		}
		_, raw := do(t, "GET", tc.servers[gw].URL+"/cluster/members", nil, false)
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatal(err)
		}
		for _, m := range view.Members {
			if m.ID == tc.nodes[owner].ID() {
				return m.Addr == front.URL
			}
		}
		return false
	})
	run := func(wave int) {
		held := new(sync.WaitGroup)
		held.Add(wave)
		arrived.Store(held)
		var wg sync.WaitGroup
		for i := 0; i < wave; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := rapclient.New(tc.servers[gw].URL, rapclient.WithRetries(0))
				if res, err := cl.Scan(context.Background(), id, []byte("a needle")); err != nil || res.Count != 1 {
					t.Errorf("scan = %+v, %v", res, err)
				}
			}()
		}
		wg.Wait()
	}
	// The clock stands still through both waves, so no gossip exchange
	// holds a connection of the gateway's transport.
	run(wave)
	first := dials.Load()
	if first < wave {
		t.Fatalf("first wave opened %d connections, want at least %d", first, wave)
	}
	run(wave)
	if again := dials.Load() - first; again != 0 {
		t.Errorf("second wave of %d forwards opened %d new connections, want 0", wave, again)
	}
}

// TestForwardClientDisconnect: a client that goes away mid-body, on the
// streamed path and on the buffered one, leaves no handler and no goroutine
// behind on either node.
func TestForwardClientDisconnect(t *testing.T) {
	tc := startCluster(t, 3, nil)
	tc.ringsAre(t, converge, 3)
	id, _, gw := placed(t, tc, 2, []string{"needle"})
	base := tc.servers[gw].URL
	sess, err := rapclient.New(base).OpenSession(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	settled := runtime.NumGoroutine()
	for _, line := range []string{
		"POST /v1/sessions/" + sess.ID + "/data",
		"POST /v1/programs/" + id + "/scan",
	} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "%s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", line, 1<<20)
		conn.Write(make([]byte, 64<<10))
		conn.Close()
	}
	handlers := regexp.MustCompile(`\(\*Node\)\.handle(Feed|Scan)|\(\*Service\)\.handle(Feed|Scan)`)
	// The handlers exit on the runtime's schedule, not the clock's.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		if !handlers.Match(stacks) && runtime.NumGoroutine() <= settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("handlers and goroutines did not drain")
		}
	}
	if fed, err := sess.Feed(context.Background(), []byte("a needle")); err != nil || fed.Count != 1 {
		t.Errorf("feed after the abandoned one = %+v, %v", fed, err)
	}
}
