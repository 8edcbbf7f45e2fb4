package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/pkg/rapclient"
)

// ForwardedHeader marks a request already routed by a peer. A node
// receiving it always serves locally — one hop maximum, no loops even
// under transient ring disagreement.
const ForwardedHeader = "X-RAP-Forwarded"

// CanaryConfig tunes the staged-rollout policy for ruleset updates.
type CanaryConfig struct {
	// Fraction of a program's replicas staged first; default 0.34
	// (one canary at the default 3-replica fan-out). <= 0 disables
	// canarying: updates apply to all replicas directly.
	Fraction float64
	// Observe is how long staged canaries are watched, sampled every
	// Observe/4, before the promote/rollback decision; default 2s.
	Observe time.Duration
	// MinHealth fails the canary when a staged node's health score
	// drops below it; default 0.35 (the critical threshold of
	// service.Health).
	MinHealth float64
	// Check, when set, runs against every canary stats sample after
	// the built-in health and window checks. Returning an error fails
	// the canary. This is the seam fault-injection tests use.
	Check func(nodeID string, st *rapclient.Stats) error
}

// Config configures one cluster node.
type Config struct {
	// ID is the node's cluster-unique name (required).
	ID string
	// Seeds are peer base URLs used to bootstrap gossip.
	Seeds []string
	// Replicas is the default placement width for new programs;
	// default 2 (owner + one replica), clamped to the cluster size at
	// placement time.
	Replicas int
	// MaxReplicas caps hot-program fan-out; default Replicas+1.
	MaxReplicas int
	// HotScanRate is the routed scans/second on one program beyond
	// which a node widens its replica set; default 200. <= 0 disables
	// fan-out.
	HotScanRate float64
	// VNodes is the consistent-hash virtual-node count per member;
	// default DefaultVNodes.
	VNodes int
	// GossipInterval paces re-announcement to one peer, aging, scan rates
	// and replica warm-up; default 1s. News spreads at once. Members
	// silent over 3 intervals leave routing, over 10 the ring.
	GossipInterval time.Duration
	// Canary tunes staged rollouts.
	Canary CanaryConfig
	// Service is the embedded single-node service configuration.
	Service service.Config
	// Logger receives cluster-layer events (membership transitions,
	// repairs, rollouts). nil disables.
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.MaxReplicas < c.Replicas {
		c.MaxReplicas = c.Replicas + 1
	}
	if c.HotScanRate == 0 {
		c.HotScanRate = 200
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = time.Second
	}
	if c.Canary.Fraction == 0 {
		c.Canary.Fraction = 0.34
	}
	if c.Canary.Observe <= 0 {
		c.Canary.Observe = 2 * time.Second
	}
	if c.Canary.MinHealth == 0 {
		c.Canary.MinHealth = 0.35
	}
	if c.Service.Clock == nil {
		c.Service.Clock = clock.Real{}
	}
}

// Node is one member of a rapserve cluster: a full single-node service
// plus the membership, placement, catalog, proxy and rollout layers.
type Node struct {
	cfg     Config
	svc     *service.Service
	ring    *Ring
	members *Membership
	catalog *Catalog
	handler http.Handler
	local   http.Handler // the embedded service's handler, built once
	hc      *http.Client // forwards and gossip, on the node's own transport
	log     *slog.Logger

	addr   atomic.Value // string; advertised base URL, set by Start
	seq    atomic.Uint64
	rr     atomic.Uint64 // round-robin cursor for replica scan fan-out
	cursor atomic.Uint64 // round-robin cursor for the tick's gossip peer

	// news wakes the announcer; Close ends ctx, then waits for done and
	// for the announcer's exchanges, which outlive their round.
	news      chan struct{}
	done      chan struct{}
	exchanges sync.WaitGroup
	ctx       context.Context
	cancel    context.CancelFunc

	// routedScans counts proxy-level scan routings per program; the
	// reconciler turns deltas into rates for hot-program fan-out.
	routedMu    sync.Mutex
	routedScans map[string]int64
	lastTick    time.Time
	lastRate    atomic.Value // float64; node-level routed scans/sec

	// applied maps program ID → the cluster-level catalog generation
	// this node's local copy matches, so reconciliation can tell a
	// replica that slept through a promote from one that is current.
	appliedMu sync.Mutex
	applied   map[string]int64

	forwards  *metrics.Counter
	fwdTime   map[int]*metrics.Histogram // by outcome: 200 ok, 404 not_found, 502 bad_gateway
	repairs   *metrics.Counter
	gossips   *metrics.Counter
	canaryOut map[string]*metrics.Counter // by RolloutResult outcome
	stopLoop  func()                      // the gossip rounds'
}

// NewNode builds a node (service included). Its gossip rounds wait for
// an address: call Start once the advertised address is known.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: Config.ID is required")
	}
	cfg.fill()
	n := &Node{
		cfg:         cfg,
		svc:         service.New(cfg.Service),
		ring:        NewRing(cfg.VNodes),
		members:     NewMembership(cfg.ID, 3*cfg.GossipInterval, 10*cfg.GossipInterval),
		catalog:     NewCatalog(),
		log:         cfg.Logger,
		routedScans: map[string]int64{},
		applied:     map[string]int64{},
		lastTick:    cfg.Service.Clock.Now(),
	}
	if n.log == nil {
		n.log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}
	n.news, n.done = make(chan struct{}, 1), make(chan struct{})
	n.ctx, n.cancel = context.WithCancel(context.Background())
	go n.announcer()
	n.addr.Store("")
	n.lastRate.Store(float64(0))
	n.ring.Add(cfg.ID)
	n.local = n.svc.Handler()
	n.handler = n.buildMux()
	// An idle connection is kept for every request a peer can hold, running
	// or queued (it refuses the rest), so no burst of forwards dials twice.
	pool := n.svc.Stats().Pool
	n.hc = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: pool.Workers * (1 + pool.QueueCapacity),
		IdleConnTimeout:     90 * time.Second,
	}}

	tel := n.svc.Telemetry()
	n.forwards = tel.Counter("rap_node_forwards_total", "Requests forwarded to a peer node.")
	fwd := func(outcome string) *metrics.Histogram {
		return tel.Histogram("rap_node_forward_duration_us", "Forward to a peer, request sent to last response byte, in microseconds: not_found is the peer's 404, bad_gateway an unreachable peer, ok the rest.", telemetry.L("outcome", outcome))
	}
	n.fwdTime = map[int]*metrics.Histogram{http.StatusOK: fwd("ok"), http.StatusNotFound: fwd("not_found"), http.StatusBadGateway: fwd("bad_gateway")}
	n.repairs = tel.Counter("rap_node_repairs_total", "Programs lazily compiled from catalog meta after a routed scan missed the local cache.")
	n.gossips = tel.Counter("rap_node_gossip_total", "Gossip exchanges initiated.")
	n.canaryOut = map[string]*metrics.Counter{}
	for _, outcome := range []string{OutcomePromoted, OutcomeRolledBack, OutcomeApplied} {
		n.canaryOut[outcome] = tel.Counter("rap_node_canary_rollouts_total",
			"Ruleset rollouts by outcome.", telemetry.L("outcome", outcome))
	}
	tel.GaugeFunc("rap_node_members", "Known cluster members (all states).", func() float64 {
		return float64(len(n.members.View()))
	})
	tel.GaugeFunc("rap_node_ring_size", "Members currently on the placement ring.", func() float64 {
		return float64(n.ring.Size())
	})
	tel.GaugeFunc("rap_node_catalog_programs", "Programs in the gossiped catalog.", func() float64 {
		return float64(n.catalog.Len())
	})
	tel.GaugeFunc("rap_node_routed_scan_rate", "Proxy-level routed scans/sec through this node.", func() float64 {
		return n.lastRate.Load().(float64)
	})
	n.stopLoop = n.cfg.Service.Clock.Every(cfg.GossipInterval, n.tick)
	return n, nil
}

// Service exposes the embedded single-node service.
func (n *Node) Service() *service.Service { return n.svc }

// Ring exposes the placement ring (read-mostly; tests inspect it).
func (n *Node) Ring() *Ring { return n.ring }

// Catalog exposes the gossiped program directory.
func (n *Node) Catalog() *Catalog { return n.catalog }

// Handler returns the node's full HTTP surface: the partition-aware
// /v1 proxy, the /cluster control endpoints, and everything the
// embedded service serves (/metrics, /healthz, /debug/...).
func (n *Node) Handler() http.Handler { return n.handler }

// Addr returns the advertised base URL ("" before Start).
func (n *Node) Addr() string { return n.addr.Load().(string) }

// ID returns the node's cluster name.
func (n *Node) ID() string { return n.cfg.ID }

// Start records the advertised base URL, which starts the rounds, and
// announces the node to every seed at once. A second call re-advertises.
func (n *Node) Start(addr string) {
	n.addr.Store(addr)
	n.announce()
}

// Close stops the loops, their exchanges included, and the service.
func (n *Node) Close() {
	n.cancel()
	<-n.done
	n.exchanges.Wait()
	n.stopLoop()
	n.hc.CloseIdleConnections()
	n.svc.Close()
}

// localInfo snapshots this node's announcement.
func (n *Node) localInfo() MemberInfo {
	st := n.svc.Stats()
	return MemberInfo{
		ID:         n.cfg.ID,
		Addr:       n.Addr(),
		Seq:        n.seq.Add(1),
		Health:     st.Health.Score,
		QueueDepth: st.Pool.QueueDepth,
		ScanRate:   n.lastRate.Load().(float64),
		Programs:   n.catalog.Digests(),
	}
}

// tick is one gossip/reconcile round: re-announce, exchange views with
// one peer, age members, sync the ring, widen hot programs, and warm
// any program this node is now a placement target for.
func (n *Node) tick() {
	if n.Addr() == "" {
		return // not started
	}
	now := n.cfg.Service.Clock.Now()
	n.merge([]MemberInfo{n.localInfo()})
	n.gossipOnce()
	for _, id := range n.members.Prune(now) {
		n.ring.Remove(id)
		n.log.Info("cluster member dead", "node", id)
	}
	for _, m := range n.members.View() {
		n.ring.Add(m.ID)
	}
	n.updateScanRates(now)
	n.reconcilePrograms()
}

// gossipTargets returns candidate peer addresses: seeds plus every
// known member, minus self.
func (n *Node) gossipTargets() []string {
	addrs := slices.Clone(n.cfg.Seeds)
	for _, m := range n.members.View() {
		addrs = append(addrs, m.Addr)
	}
	seen := map[string]bool{"": true, n.Addr(): true}
	var out []string
	for _, addr := range addrs {
		if !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	return out
}

type gossipRequest struct {
	From string       `json:"from"`
	View []MemberInfo `json:"view"`
}

type gossipResponse struct {
	View []MemberInfo `json:"view"`
}

// gossipOnce exchanges views with one peer, round-robin over the
// candidate list.
func (n *Node) gossipOnce() {
	if targets := n.gossipTargets(); len(targets) > 0 {
		n.exchange(targets[(n.cursor.Add(1)-1)%uint64(len(targets))])
	}
}

// announce spreads news that starts at this node: its start, a program
// it accepted, a promoted generation. A peer that learns the news from
// the push does not pass it on.
func (n *Node) announce() {
	if n.Addr() != "" { // started
		select {
		case n.news <- struct{}{}:
		default: // a round is due already: it carries this news too
		}
	}
}

// announcer runs a round per wake-up until Close: it re-announces a
// fresh self-entry and starts an exchange with every peer it knows at
// once. It does not wait for them, so a peer that never answers delays no
// later news.
func (n *Node) announcer() {
	defer close(n.done)
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-n.news:
		}
		n.merge([]MemberInfo{n.localInfo()})
		for _, addr := range n.gossipTargets() {
			n.exchanges.Add(1)
			go func() {
				defer n.exchanges.Done()
				n.exchange(addr)
			}()
		}
	}
}

// exchange pushes the local view to the peer at addr and merges whatever
// it knows back.
func (n *Node) exchange(addr string) {
	n.gossips.Inc()
	body, _ := json.Marshal(gossipRequest{From: n.cfg.ID, View: n.members.Infos()})
	ctx, cancel := context.WithTimeout(n.ctx, n.cfg.GossipInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/cluster/gossip", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.hc.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var reply gossipResponse
	if decodePeer(resp.Body, &reply) != nil {
		return
	}
	n.absorb(reply.View)
}

// decodePeer decodes a peer's JSON reply — a gossip view, or a program's
// catalog meta — from its first 16 MiB.
func decodePeer(body io.Reader, v any) error {
	return json.NewDecoder(io.LimitReader(body, 16<<20)).Decode(v)
}

// merge folds announcements into the member table and puts every member
// it did not hold on the ring at once.
func (n *Node) merge(infos []MemberInfo) {
	for _, id := range n.members.Merge(infos, n.cfg.Service.Clock.Now()) {
		n.ring.Add(id)
	}
}

// absorb merges a remote view: membership first, then any program
// digests the local catalog is stale on (fetched from the announcer).
func (n *Node) absorb(view []MemberInfo) {
	n.merge(view)
	for _, m := range view {
		if m.ID == n.cfg.ID || m.Addr == "" {
			continue
		}
		for _, d := range m.Programs {
			if n.catalog.Stale(d) {
				n.fetchProgram(m.Addr, d.ID)
			}
		}
	}
}

// fetchProgram pulls full program meta from a peer (fetch-on-stale).
func (n *Node) fetchProgram(addr, id string) {
	ctx, cancel := context.WithTimeout(n.ctx, n.cfg.GossipInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/cluster/programs/"+id, nil)
	if err != nil {
		return
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var meta ProgramMeta
	if decodePeer(resp.Body, &meta) != nil {
		return
	}
	if meta.ID != id {
		return
	}
	n.catalog.Put(meta)
}

// updateScanRates converts routed-scan deltas into per-program and
// node-level rates, widening the replica set of programs running hot.
func (n *Node) updateScanRates(now time.Time) {
	n.routedMu.Lock()
	dt := now.Sub(n.lastTick).Seconds()
	n.lastTick = now
	counts := n.routedScans
	n.routedScans = map[string]int64{}
	n.routedMu.Unlock()
	if dt <= 0 {
		return
	}
	var total float64
	for id, c := range counts {
		rate := float64(c) / dt
		total += rate
		n.catalog.SetScanRate(id, rate)
		if n.cfg.HotScanRate > 0 && rate > n.cfg.HotScanRate {
			if meta, ok := n.catalog.Get(id); ok && meta.Replicas < n.cfg.MaxReplicas {
				n.catalog.SetReplicas(id, meta.Replicas+1)
				n.log.Info("hot program fan-out", "program", id, "rate", rate, "replicas", meta.Replicas+1)
			}
		}
	}
	n.lastRate.Store(total)
}

// reconcilePrograms pre-warms the local cache for every catalog program
// this node is a placement target of, so routed scans land on a
// compiled program instead of paying the repair on the request path. It
// also catches generation skew: a replica that was down during a
// promote hot-swaps to the live ruleset here.
func (n *Node) reconcilePrograms() {
	for _, meta := range n.catalog.List() {
		if !n.inPlacement(meta.ID, meta.Replicas) {
			continue
		}
		if _, ok := n.svc.Program(meta.ID); ok && n.appliedGen(meta.ID) >= meta.Generation {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := n.ensureLocal(ctx, meta)
		cancel()
		if err != nil {
			n.log.Warn("replica warm failed", "program", meta.ID, "err", err)
		}
	}
}

// ensureLocal materializes a catalog program on this node: compile the
// ID-defining original ruleset (claiming the content-hash ID), then
// hot-swap to the live ruleset through the RAPD delta path when the
// cluster generation has moved past what this node last applied.
func (n *Node) ensureLocal(ctx context.Context, meta ProgramMeta) error {
	if _, ok := n.svc.Program(meta.ID); !ok {
		if _, _, err := n.svc.Compile(ctx, meta.Patterns, meta.Options); err != nil {
			return err
		}
		n.setApplied(meta.ID, 0)
	}
	if meta.LivePatterns != nil && n.appliedGen(meta.ID) < meta.Generation {
		if _, err := n.svc.Update(ctx, meta.ID, meta.LivePatterns, meta.LiveOptions); err != nil {
			return err
		}
		n.setApplied(meta.ID, meta.Generation)
	}
	return nil
}

func (n *Node) setApplied(id string, gen int64) {
	n.appliedMu.Lock()
	n.applied[id] = gen
	n.appliedMu.Unlock()
}

func (n *Node) appliedGen(id string) int64 {
	n.appliedMu.Lock()
	defer n.appliedMu.Unlock()
	return n.applied[id]
}

// inPlacement reports whether this node is in the first `replicas`
// placement slots for key.
func (n *Node) inPlacement(key string, replicas int) bool {
	for _, id := range n.ring.Placement(key, replicas) {
		if id == n.cfg.ID {
			return true
		}
	}
	return false
}

// noteRoutedScan feeds the hot-program detector.
func (n *Node) noteRoutedScan(id string) {
	n.routedMu.Lock()
	n.routedScans[id]++
	n.routedMu.Unlock()
}
