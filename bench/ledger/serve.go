package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/pkg/rapclient"
)

// The end-to-end rates are computed over windows of the timed run, cut at
// ticks: cpu_ms_per_op over every sliceLen window (one starts each tick),
// payload_mbps over the consecutive fitLen windows.
const (
	sliceLen = time.Second
	fitLen   = 500 * time.Millisecond
	tick     = 250 * time.Millisecond
)

// numClients is the load-generator width: generator and server share the
// process, so more clients than cores would only measure the scheduler.
func numClients() int { return min(2, runtime.NumCPU()) }

// target is one served system, up and holding the workload's program.
type target struct {
	urls     []string // where client c sends: urls[c%len(urls)]
	nodeURLs []string // every listener, for /metrics scrapes
	progID   string
	svcs     []*service.Service
	stop     func()

	// hot_swap only: updates started and completed so far. The program's
	// generation g serves rules[g%2]; a session opened while started >
	// completed may land on either side of the swap in flight. While hold
	// is set the updater starts no update: the streamer sets it around
	// some of its opens, so that those sessions have exactly one generation
	// to answer for.
	started, completed atomic.Int64
	hold               atomic.Bool
}

// setUp starts the single node (or the 3-node cluster), compiles the
// workload's ruleset through the API and waits until every gateway can
// serve it.
func setUp(s spec, in *inputs) (*target, error) {
	ctx := context.Background()
	if s.shape != clusterHop {
		svc := service.New(service.Config{})
		srv := httptest.NewServer(svc.Handler())
		t := &target{urls: []string{srv.URL}, nodeURLs: []string{srv.URL}, svcs: []*service.Service{svc},
			stop: func() { srv.Close(); svc.Close() }}
		prog, err := newClient(srv.URL).Compile(ctx, in.rules[0], nil)
		if err != nil {
			t.stop()
			return nil, fmt.Errorf("compile: %w", err)
		}
		t.progID = prog.ID
		return t, nil
	}

	// The listeners exist before the nodes, because every node needs the
	// full seed list at construction.
	const size = 3
	nodes := make([]atomic.Pointer[cluster.Node], size)
	servers := make([]*httptest.Server, size)
	seeds := make([]string, size)
	for i := range servers {
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n := nodes[i].Load(); n != nil {
				n.Handler().ServeHTTP(w, r)
				return
			}
			http.Error(w, "node starting", http.StatusServiceUnavailable)
		}))
		seeds[i] = servers[i].URL
	}
	t := &target{nodeURLs: seeds}
	t.stop = func() {
		for i := range nodes {
			if n := nodes[i].Load(); n != nil {
				n.Close()
			}
		}
		for _, srv := range servers {
			srv.Close()
		}
	}
	for i := range nodes {
		n, err := cluster.NewNode(cluster.Config{
			ID:             fmt.Sprintf("c%d", i),
			Seeds:          seeds,
			Replicas:       1,
			HotScanRate:    -1,
			GossipInterval: 50 * time.Millisecond,
			Service:        service.Config{Workers: 1},
		})
		if err != nil {
			t.stop()
			return nil, err
		}
		nodes[i].Store(n)
		t.svcs = append(t.svcs, n.Service())
	}
	for i := range nodes {
		nodes[i].Load().Start(seeds[i])
	}
	every := func(cond func(*cluster.Node) bool) func() bool {
		return func() bool {
			for i := range nodes {
				if !cond(nodes[i].Load()) {
					return false
				}
			}
			return true
		}
	}
	if err := waitFor("ring convergence", every(func(n *cluster.Node) bool { return n.Ring().Size() == size })); err != nil {
		t.stop()
		return nil, err
	}
	prog, err := newClient(seeds[0]).Compile(ctx, in.rules[0], nil)
	if err != nil {
		t.stop()
		return nil, fmt.Errorf("compile: %w", err)
	}
	t.progID = prog.ID
	if err := waitFor("catalog convergence", every(func(n *cluster.Node) bool { return n.Catalog().Len() == 1 })); err != nil {
		t.stop()
		return nil, err
	}
	owner := nodes[0].Load().Ring().Owner(prog.ID)
	for i := range nodes {
		if nodes[i].Load().ID() == owner {
			t.urls = append(t.urls[:0], seeds[(i+1)%size], seeds[(i+2)%size])
			t.nodeURLs = append([]string{seeds[i]}, t.urls...) // owner first
		}
	}
	return t, nil
}

func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// newClient gives each load client its own transport, hence its own
// keep-alive connection. Retries are off: a refusal is a failed op.
func newClient(url string) *rapclient.Client {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return rapclient.New(url, rapclient.WithHTTPClient(hc), rapclient.WithRetries(0))
}

// sample is one completed event: when it finished (ns since the run
// began) and its value — a latency in ns, or a byte count.
type sample struct{ done, val int64 }

// clientLog is what one load client recorded. Each client owns its log.
type clientLog struct {
	ops       []sample // the workload's op and its latency
	payload   []sample // scan/feed bodies served and their sizes
	late      []int64  // open loop: how long after its due time an op left
	attempted int64
	refused   int64 // 429/503
	errored   int64 // any other error
	wrong     int64 // response differed from the oracle
}

func (l *clientLog) fail(err error) {
	if errors.Is(err, rapclient.ErrOverLimit) || errors.Is(err, rapclient.ErrUnavailable) {
		l.refused++
	} else {
		l.errored++
	}
}

// limit ends a load phase: after n ops per client (warm-up) or at a
// deadline (the timed run), whichever is set.
type limit struct {
	ops      int
	deadline time.Time
}

func (l limit) reached(k int, at time.Time) bool {
	if l.ops > 0 {
		return k >= l.ops
	}
	return !at.Before(l.deadline)
}

// drive runs one load phase of the workload's traffic shape against t
// and returns each client's log.
func drive(s spec, in *inputs, t *target, lim limit) []*clientLog {
	n := numClients()
	if s.shape == hotSwap {
		n = 2 // the updater and the streamer
	}
	logs := make([]*clientLog, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		logs[c] = &clientLog{}
		cl := newClient(t.urls[c%len(t.urls)])
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			switch {
			case s.shape == hotSwap && c == 0:
				updater(cl, in, t, start, lim, logs[c])
			case s.shape == hotSwap:
				streamer(cl, in, t, start, lim, logs[c])
			default:
				scanner(cl, s, in, t, c, n, start, lim, logs[c])
			}
		}(c)
	}
	wg.Wait()
	return logs
}

// scanner sends one-shot scans, cycling the bodies from a per-client
// offset. Open loop: op k of client c is due at slot k*n+c of the global
// schedule and its latency runs from that due time, so a stall is paid
// by every request queued behind it. Warm-up (an op count, no deadline)
// is always closed loop, so that setup_s measures work, not a schedule.
func scanner(cl *rapclient.Client, s spec, in *inputs, t *target, c, n int, start time.Time, lim limit, log *clientLog) {
	ctx := context.Background()
	gap := time.Duration(0)
	if s.shape == openLoop && lim.ops == 0 {
		gap = time.Duration(float64(time.Second) / s.rate)
	}
	for k := 0; ; k++ {
		from := time.Now()
		if gap > 0 {
			from = start.Add(time.Duration(k*n+c) * gap)
		}
		if lim.reached(k, from) {
			return
		}
		if gap > 0 {
			sleepUntil(from)
			log.late = append(log.late, max(int64(time.Since(from)), 0))
		}
		b := (k + c*len(in.bodies)/n) % len(in.bodies)
		log.attempted++
		res, err := cl.Scan(ctx, t.progID, in.bodies[b])
		end := time.Now()
		if err != nil {
			log.fail(err)
			continue
		}
		done := int64(end.Sub(start))
		log.ops = append(log.ops, sample{done, int64(end.Sub(from))})
		log.payload = append(log.payload, sample{done, int64(len(in.bodies[b]))})
		if !sameSet(res.Matches, in.want[0][b]) {
			log.wrong++
		}
	}
}

// sleepUntil sleeps in the kernel until t. time.Sleep would overshoot by
// most of a millisecond in an idle process (the netpoller sleeps in whole
// milliseconds), charged to every open-loop op; a nanosleep overshoots by
// tens of microseconds, which client.late_p99_ms reports. It does not
// spin towards t: the generator shares the process with the server, and
// a spin's CPU time would be booked on cpu_ms_per_op.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) { // a signal ends a nanosleep early
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// updater is hot_swap's client A: PUT the other ruleset, again and again.
func updater(cl *rapclient.Client, in *inputs, t *target, start time.Time, lim limit, log *clientLog) {
	ctx := context.Background()
	for k := 0; !lim.reached(k, time.Now()); k++ {
		gen := t.started.Add(1)
		for t.hold.Load() { // the streamer is opening a session that wants no update in flight
			t.started.Add(-1)
			for t.hold.Load() {
				runtime.Gosched()
			}
			gen = t.started.Add(1)
		}
		log.attempted++
		from := time.Now()
		res, err := cl.Update(ctx, t.progID, in.rules[gen%2], nil)
		end := time.Now()
		if err != nil {
			log.fail(err)
			t.started.Add(-1)
			continue
		}
		t.completed.Store(gen)
		log.ops = append(log.ops, sample{int64(end.Sub(start)), int64(end.Sub(from))})
		if res.Generation != gen {
			log.wrong++
		}
	}
}

// exactEvery: every exactEvery-th session of the streamer opens in a gap
// between updates, where exactly one generation is live.
const exactEvery = 4

// streamer is hot_swap's client B: open a session, feed one body in
// sessionChunks chunks, close, check, repeat. The session must answer
// for the ruleset generation that was live when it opened. With the
// updater in a closed loop an update is nearly always in flight, and
// either side of it is a right answer; so every exactEvery-th open first
// holds the updater back and waits for the update in flight to land, and
// that session must answer for the one generation then live.
func streamer(cl *rapclient.Client, in *inputs, t *target, start time.Time, lim limit, log *clientLog) {
	ctx := context.Background()
	for k := 0; !lim.reached(k, time.Now()); k++ {
		body := in.bodies[k%len(in.bodies)]
		log.attempted++
		if k%exactEvery == 0 {
			t.hold.Store(true)
			for t.started.Load() != t.completed.Load() {
				runtime.Gosched()
			}
		}
		lo := t.completed.Load()
		sess, err := cl.OpenSession(ctx, t.progID)
		hi := t.started.Load()
		t.hold.Store(false)
		if err != nil {
			log.fail(err)
			continue
		}
		var got []rapclient.Match
		chunk := len(body) / sessionChunks
		for off := 0; off < len(body) && err == nil; off += chunk {
			var fr *rapclient.FeedResult
			if fr, err = sess.Feed(ctx, body[off:off+chunk]); err == nil {
				got = append(got, fr.Matches...)
				log.payload = append(log.payload, sample{int64(time.Since(start)), int64(chunk)})
			}
		}
		cr, cerr := sess.Close(ctx)
		if err == nil {
			err = cerr
		}
		if err != nil {
			log.fail(err)
			continue
		}
		got = append(got, cr.Matches...)
		ok := false
		for g := lo; g <= hi && g <= lo+1; g++ {
			ok = ok || sameSet(got, in.want[g%2][k%len(in.bodies)])
		}
		if !ok {
			log.wrong++
		}
	}
}

// timedRun drives the workload for d with tracing off and writes into r
// the end-to-end metrics plus the client-side and process-wide layer rows
// that only a served run yields.
//
// The machines this runs on are virtual, and their hypervisor takes the
// vCPUs away for a share of the time that moves between 0 and 30% from
// one minute to the next (steal, in /proc/stat). Wall-clock throughput
// follows it, and by more than the share: a stolen vCPU holds up whatever
// waits for the goroutine it ran. So payload_mbps is the throughput at no
// steal: the run is cut into fitLen windows, each window's MB/s is set
// against the share of vCPU time stolen during it, and the line through
// them (fitAtZero) is read at zero. The loss per unit of steal is fitted
// in every run, because it differs by workload: nothing on the open loop,
// whose rate the schedule pins, one to three times the stolen share on the
// closed loops. The fit is a median's, so a regression that touches fewer
// than half the windows does not move it. client.payload_mbps_median is
// the median sliceLen window as the clock saw it; proc.steal_share and
// client.steal_slope say how much was corrected.
//
// CPU time stops while a vCPU is stolen, so cpu_ms_per_op needs no such
// correction, but the same op costs more CPU time for seconds on end when
// the neighbours are busy. It is the lower quartile of the sliceLen
// windows: the CPU per op the run stayed at or under in a quarter of them.
// The price: a regression that touches fewer than three quarters of the
// windows does not move it; client.cpu_ms_per_op_median shows that one.
func timedRun(s spec, in *inputs, t *target, d time.Duration, r *result) {
	n := max(1, int(d/tick))            // ticks in the run
	width := min(n, int(sliceLen/tick)) // ticks in a window
	runtime.GC()
	objs0, bytes0, gc0 := runtimeCounters()
	start := time.Now()
	bounds, cpus, stolen := []int64{0}, []float64{cpuSeconds()}, []float64{stolenSeconds()}
	sampled := make(chan struct{})
	go func() { // the process's CPU clock and the machine's stolen time at every tick
		defer close(sampled)
		for i := 1; i <= n; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / time.Duration(n))))
			bounds, cpus, stolen = append(bounds, int64(time.Since(start))), append(cpus, cpuSeconds()), append(stolen, stolenSeconds())
		}
	}()
	logs := drive(s, in, t, limit{deadline: start.Add(d)})
	<-sampled
	wall := time.Since(start)
	objs1, bytes1, gc1 := runtimeCounters()

	var lat, late []int64
	var refused, wrong int64
	tickOps, tickBytes := make([]int, n), make([]float64, n)
	tickOf := func(done int64) int { return sort.Search(n, func(i int) bool { return done < bounds[i+1] }) }
	for _, l := range logs {
		for _, o := range l.ops {
			lat = append(lat, o.val)
			if i := tickOf(o.done); i < n {
				tickOps[i]++
			}
		}
		for _, p := range l.payload {
			if i := tickOf(p.done); i < n {
				tickBytes[i] += float64(p.val)
			}
		}
		late = append(late, l.late...)
		r.Attempted += l.attempted
		r.Failed += l.refused + l.errored + l.wrong
		refused += l.refused
		wrong += l.wrong
	}
	sortInts := func(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }
	sortInts(lat)
	sortInts(late)
	// window sums the ticks [w, w+k): seconds, payload bytes and ops.
	window := func(w, k int) (secs, bytes float64, ops int) {
		for i := w; i < w+k; i++ {
			bytes += tickBytes[i]
			ops += tickOps[i]
		}
		return float64(bounds[w+k]-bounds[w]) / 1e9, bytes, ops
	}
	var mbps, cpuPerOp []float64 // every sliceLen window
	for w := 0; w+width <= n; w++ {
		secs, bytes, ops := window(w, width)
		mbps = append(mbps, bytes/1e6/secs)
		if ops > 0 {
			cpuPerOp = append(cpuPerOp, (cpus[w+width]-cpus[w])*1e3/float64(ops))
		}
	}
	var fitMBps, fitSteal []float64 // consecutive fitLen windows
	vcpus := float64(runtime.NumCPU())
	for w, k := 0, min(n, int(fitLen/tick)); w+k <= n; w += k {
		secs, bytes, _ := window(w, k)
		fitMBps = append(fitMBps, bytes/1e6/secs)
		fitSteal = append(fitSteal, (stolen[w+k]-stolen[w])/(vcpus*secs))
	}
	atZero, slope := fitAtZero(fitSteal, fitMBps)
	r.Metrics["payload_mbps"] = atZero
	r.Metrics["cpu_ms_per_op"] = lowerQuartile(cpuPerOp)
	r.Metrics["client.steal_slope"] = max(0, -slope/max(atZero, 1e-9)) // max: no -0
	r.Metrics["proc.steal_share"] = (stolen[n] - stolen[0]) / (vcpus * wall.Seconds())
	r.Metrics["client.payload_mbps_median"] = median(mbps)
	r.Metrics["client.cpu_ms_per_op_median"] = median(cpuPerOp)
	r.Metrics["peak_rss_mb"] = peakRSSMB()
	r.Metrics["failed_share"] = float64(r.Failed) / float64(max(r.Attempted, 1))
	r.Samples = map[string]int{"windows": len(cpuPerOp), "fit_windows": len(fitMBps), "ops": len(lat)}
	ops, cpu := float64(max(len(lat), 1)), cpus[n]-cpus[0]

	r.Metrics["client.ops"] = float64(len(lat))
	r.Metrics["client.ops_per_s"] = float64(len(lat)) / wall.Seconds()
	r.Metrics["op_p50_ms"] = quantile(lat, 0.50) / 1e6
	r.Metrics["op_p90_ms"] = quantile(lat, 0.90) / 1e6
	r.Metrics["client.op_p99_ms"] = quantile(lat, 0.99) / 1e6
	r.Metrics["client.late_p99_ms"] = quantile(late, 0.99) / 1e6
	r.Metrics["client.refused"] = float64(refused)
	r.Metrics["client.wrong_matchsets"] = float64(wrong)
	r.Metrics["proc.allocs_per_op"] = float64(objs1-objs0) / ops
	r.Metrics["proc.alloc_bytes_per_op"] = float64(bytes1-bytes0) / ops
	r.Metrics["proc.gc_cpu_share"] = (gc1 - gc0) / max(cpu, 1e-9)

	// Queue wait as the service itself measured it, worst node.
	for _, svc := range t.svcs {
		qw := svc.Stats().Stages["queue_wait"]
		r.Metrics["service.queue_wait_p50_us"] = max(r.Metrics["service.queue_wait_p50_us"], float64(qw.P50US))
		r.Metrics["service.queue_wait_p99_us"] = max(r.Metrics["service.queue_wait_p99_us"], float64(qw.P99US))
	}
}

// quantile reads the q-quantile off a sorted sample (0 when empty).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1)+0.5)])
}

// lowerQuartile returns the value a quarter of v stays at or under (0
// when empty).
func lowerQuartile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
}

// fitAtZero fits a line y = a + b*x through the points and returns a, the
// value at x = 0, and b. The fit is Theil-Sen's: b is the median slope
// over all pairs of points that differ in x, a the median of y - b*x. One
// window with a stall in it (on the open loop the next one catches up, so
// the pair draws a steep line of its own) moves neither. b is held at or
// below 0 (x is the share of time stolen, y a throughput: losing the
// processor speeds nothing up), so with no spread in x, or a rising fit,
// a is the median of y.
func fitAtZero(x, y []float64) (a, b float64) {
	var slopes []float64
	for i := range y {
		for j := i + 1; j < len(y); j++ {
			if x[i] != x[j] {
				slopes = append(slopes, (y[i]-y[j])/(x[i]-x[j]))
			}
		}
	}
	b = min(median(slopes), 0)
	at0 := make([]float64, len(y))
	for i := range y {
		at0[i] = y[i] - b*x[i]
	}
	return median(at0), b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stolenSeconds is the time so far, summed over the vCPUs, that the
// hypervisor ran something else while a vCPU had work: the steal column
// of /proc/stat, in ticks of 1/100 s. 0 where there is no such file.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

// runtimeCounters reads, without stopping the world, the heap objects
// and bytes allocated so far and the CPU seconds spent collecting them.
func runtimeCounters() (objects, bytes uint64, gcCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Float64()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// scrape sums one counter family over the /metrics pages of urls.
func scrape(urls []string, name string) float64 {
	var total float64
	for _, u := range urls {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), name); ok && rest != "" && (rest[0] == ' ' || rest[0] == '{') {
				f := strings.Fields(rest)
				v, _ := strconv.ParseFloat(f[len(f)-1], 64)
				total += v
			}
		}
		resp.Body.Close()
	}
	return total
}
