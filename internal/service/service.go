package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/compile"
	"repro/internal/metrics"
	"repro/internal/prefilter"
	"repro/internal/qos"
	"repro/internal/refmatch"
	"repro/internal/telemetry"
)

// Errors surfaced by the service API.
var (
	// ErrNotFound reports an unknown program or session ID.
	ErrNotFound = errors.New("service: not found")
	// ErrSessionLimit reports the open-session cap; HTTP maps it to 429.
	ErrSessionLimit = errors.New("service: session limit reached")
)

// Config sizes the service. Zero fields take defaults.
type Config struct {
	// Workers is the shard/worker count; default runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth is the bounded per-worker queue; default 64. A full
	// queue rejects with ErrQueueFull (backpressure, not blocking).
	QueueDepth int
	// CompileWorkers sizes the dedicated compile pool. Ruleset compiles
	// (POST /programs, PUT /programs/{id}) run there instead of on the
	// scan shards, so a multi-hundred-pattern compile never stalls match
	// traffic. Default max(1, GOMAXPROCS/2).
	CompileWorkers int
	// ProgramCacheSize caps the compiled-program LRU; default 128.
	ProgramCacheSize int
	// MaxSessions caps concurrently open sessions; default 4096.
	MaxSessions int
	// Logger receives one structured access-log line per HTTP request
	// (method, path, status, bytes, duration, trace ID). nil disables
	// access logging; tracing and metrics stay on.
	Logger *slog.Logger
	// TraceRing caps how many finished traces /debug/traces retains;
	// default 128.
	TraceRing int
	// SlowTrace retains only traces at least this slow in the ring;
	// 0 (the default) retains every finished trace.
	SlowTrace time.Duration
	// QoS is the multi-tenant configuration: the identity header, the
	// default per-tenant limits and per-tenant overrides. The zero value
	// means one implicit unlimited tenant class (weight 1) — accounting
	// still runs, admission never rejects. Live reconfiguration goes
	// through Service.QoS().SetConfig.
	QoS qos.Config
	// Clock runs the tenants' token buckets, the health snapshot's
	// timestamp and the cluster control loops; nil means clock.Real.
	Clock clock.Clock
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CompileWorkers <= 0 {
		c.CompileWorkers = runtime.GOMAXPROCS(0) / 2
		if c.CompileWorkers < 1 {
			c.CompileWorkers = 1
		}
	}
	if c.ProgramCacheSize <= 0 {
		c.ProgramCacheSize = 128
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 128
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
}

// Service is the multi-tenant match service: program cache + session
// table + sharded worker pool, instrumented end to end — every stage of
// a request (cache lookup, compile, queue wait, scan, reconfig apply)
// lands in a labeled histogram on the telemetry registry and as a span
// on the ambient request trace. All methods are safe for concurrent use.
type Service struct {
	cfg       Config
	cache     *programCache
	pool      *pool
	compilers *pool // dedicated compile workers; see Config.CompileWorkers
	qosReg    *qos.Registry
	start     time.Time
	tel       *telemetry.Registry
	tracer    *telemetry.Tracer

	mu       sync.Mutex
	sessions map[string]*session

	nextFlow    atomic.Uint64
	nextSess    atomic.Uint64
	nextCompile atomic.Uint64

	// compileHook, when set, runs on the compile worker immediately before
	// each compile. Test seam: lets tests hold a compile open and assert
	// scans keep flowing while it runs.
	compileHook func()

	// Per-stage latency histograms: one family, one series per stage.
	stageCacheLookup *metrics.Histogram
	stageCompile     *metrics.Histogram
	stageCompileWait *metrics.Histogram
	stageQueueWait   *metrics.Histogram
	stageScan        *metrics.Histogram
	stagePrefilter   *metrics.Histogram
	stageApply       *metrics.Histogram
	stageBodyRead    *metrics.Histogram // scan/feed request body off the wire
	stageEncode      *metrics.Histogram // scan/feed response body built

	// Finished API requests, their 5xx answers and the answers slower
	// than slowRequest (observeRequest).
	requests     *metrics.Counter
	requests5xx  *metrics.Counter
	requestsSlow *metrics.Counter

	scans       *metrics.Counter
	scanBytes   *metrics.Counter
	scanMatches *metrics.Counter
	opened      *metrics.Counter
	closedCount *metrics.Counter

	// Prefilter fast-path counters, aggregated across all programs.
	pfScanned *metrics.Counter
	pfSkipped *metrics.Counter
	pfHits    *metrics.Counter
	pfWindows *metrics.Counter
	pfDirty   *metrics.Counter
	// pfTier counts scans/chunks by the candidate-scanner tier of the
	// program's compiled literal union (pre-registered per tier).
	pfTier map[string]*metrics.Counter

	// Live-reconfiguration counters (Service.Update).
	updateMu           sync.Mutex // serializes hot-swaps
	updates            *metrics.Counter
	updateReused       *metrics.Counter // patterns taken from the replaced generation
	updateRestored     *metrics.Counter // patterns taken from the generation it displaced
	updateCompiled     *metrics.Counter // patterns compiled because neither held their text
	updateRepacks      *metrics.Counter // updates whose placement fell back to a cold pack
	updateDeltaBytes   *metrics.Counter
	updateFullBytes    *metrics.Counter
	updateReloadCycles *metrics.Counter
	updateStallCycles  *metrics.Counter
	updateStallHist    *metrics.Histogram // stall window per update, cycles
	updateDeltaHist    *metrics.Histogram // delta bitstream size per update, bytes
}

// New creates a started service; Close releases its workers.
func New(cfg Config) *Service {
	cfg.setDefaults()
	s := &Service{
		cfg:       cfg,
		cache:     newProgramCache(cfg.ProgramCacheSize),
		pool:      newPool(cfg.Workers, cfg.QueueDepth),
		compilers: newPool(cfg.CompileWorkers, cfg.QueueDepth),
		qosReg:    qos.NewRegistryOn(cfg.QoS, cfg.Clock.Now),
		start:     time.Now(),
		tel:       telemetry.NewRegistry(),
		tracer:    telemetry.NewTracer(cfg.TraceRing, cfg.SlowTrace),
		sessions:  map[string]*session{},
	}
	// Eviction releases the owning tenant's cache-byte charge.
	s.cache.onEvict = func(p *Program) {
		s.qosReg.Tenant(p.Owner).ChargeCacheBytes(-p.MemBytes)
	}
	s.registerMetrics()
	return s
}

// Close stops the worker pools. Outstanding queued tasks are drained.
func (s *Service) Close() {
	s.pool.close()
	s.compilers.close()
}

// QoS returns the live tenant registry, for configuration reloads
// (rapserve wires SIGHUP to SetConfig) and direct inspection.
func (s *Service) QoS() *qos.Registry { return s.qosReg }

// tenant resolves the request's tenant from ctx (the HTTP layer attaches
// the identity-header value; absent means the anonymous tenant).
func (s *Service) tenant(ctx context.Context) *qos.Tenant {
	return s.qosReg.Tenant(qos.TenantName(ctx))
}

// observeStage folds one completed request stage into its latency
// histogram (with the trace ID as exemplar) and into the request's span
// list. attrs annotate the span.
func (s *Service) observeStage(h *metrics.Histogram, tr *telemetry.Trace, name string, start time.Time, attrs ...telemetry.Label) {
	s.observeSum(h, tr, name, stageSum{start: start, d: time.Since(start)}, attrs...)
}

// stageSum is one request's time in one stage, summed over the chunks of
// a one-shot scan; its span starts where the first chunk's did.
type stageSum struct {
	start time.Time
	d     time.Duration
}

func (t *stageSum) add(start time.Time, d time.Duration) {
	if t.start.IsZero() {
		t.start = start
	}
	t.d += d
}

// observeSum is observeStage for a stage whose time is summed: one
// histogram sample and one span however many chunks it took.
func (s *Service) observeSum(h *metrics.Histogram, tr *telemetry.Trace, name string, t stageSum, attrs ...telemetry.Label) {
	h.ObserveExemplar(t.d, tr.ID())
	tr.AddSpan(name, t.start, t.d, attrs...)
}

// runCompile executes fn on the dedicated compile pool and waits for it,
// keeping ruleset compiles off the scan shards: a slow compile occupies a
// compile worker, never a match worker. The gap between submission and
// execution is the compile_queue_wait stage. A full compile queue rejects
// with ErrQueueFull, like scan traffic.
func (s *Service) runCompile(tr *telemetry.Trace, fn func()) error {
	enqueued := time.Now()
	done := make(chan struct{})
	if err := s.compilers.submit(s.nextCompile.Add(1), func() {
		defer close(done)
		s.observeStage(s.stageCompileWait, tr, "compile_queue_wait", enqueued)
		if s.compileHook != nil {
			s.compileHook()
		}
		fn()
	}); err != nil {
		return err
	}
	<-done
	return nil
}

// Compile returns the program for (patterns, opts), compiling at most
// once per distinct content hash. The bool reports whether the request
// was served without a fresh compile (cache hit or single-flight join).
// Fresh compiles run on the dedicated compile pool (Config.CompileWorkers)
// and honor ctx cancellation; duplicate in-flight requests coalesce onto
// the one compile via the cache's single-flight.
func (s *Service) Compile(ctx context.Context, patterns []string, opts CompileOptions) (*Program, bool, error) {
	if len(patterns) == 0 {
		return nil, false, fmt.Errorf("service: empty pattern list")
	}
	if err := opts.validate(); err != nil {
		return nil, false, err
	}
	tr := telemetry.TraceFromContext(ctx)
	ten := s.tenant(ctx)
	key := programKey(patterns, opts)
	lookup := time.Now()
	// A fresh compile holds one of the tenant's compile slots for its
	// duration, and the resulting program is owned by (and its modeled
	// memory charged to) the tenant until eviction.
	prog, hit, err := s.cache.getOrCompile(key, func() (*Program, error) {
		if err := ten.AcquireCompile(); err != nil {
			return nil, err
		}
		defer ten.ReleaseCompile()
		var (
			m    *refmatch.Matcher
			res  *compile.Result
			cerr error
		)
		if err := s.runCompile(tr, func() {
			compileStart := time.Now()
			m, res, cerr = build(ctx, nil, patterns, opts)
			if cerr == nil {
				s.observeStage(s.stageCompile, tr, "compile", compileStart)
			}
		}); err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
		p := &Program{
			ID:        key,
			Matcher:   m,
			CreatedAt: time.Now(),
			Opts:      opts,
			Owner:     ten.Name(),
			MemBytes:  memEstimate(patterns),
			res:       res,
		}
		ten.ChargeCacheBytes(p.MemBytes)
		return p, nil
	})
	if err == nil && hit {
		s.observeStage(s.stageCacheLookup, tr, "cache_lookup", lookup)
	}
	return prog, hit, err
}

// Program returns a cached program by ID.
func (s *Service) Program(id string) (*Program, bool) { return s.cache.get(id) }

// lookup resolves a program ID, timing the cache lookup stage.
func (s *Service) lookup(tr *telemetry.Trace, programID string) (*Program, bool) {
	start := time.Now()
	prog, ok := s.cache.get(programID)
	s.observeStage(s.stageCacheLookup, tr, "cache_lookup", start)
	return prog, ok
}

// runOn executes fn on the pool shard of flow under ten's fair-share
// queue with the given DRR cost (input bytes; min 1) as the given part of
// its request and waits for it; unless charge is noCharge, ten's byte
// bucket is charged charge bytes (pool.submitTask). It returns the gap
// between submission and execution, which the caller observes as the
// queue_wait stage (observeQueueWait).
func (s *Service) runOn(ten *qos.Tenant, flow uint64, cost, charge int, pt part, fn func()) (stageSum, error) {
	enqueued := time.Now()
	var wait time.Duration
	done := make(chan struct{})
	if err := s.pool.submitTask(flow, ten, int64(cost), int64(charge), pt, func() {
		defer close(done)
		wait = time.Since(enqueued)
		fn()
	}); err != nil {
		return stageSum{}, err
	}
	<-done
	return stageSum{start: enqueued, d: wait}, nil
}

// observeQueueWait observes one request's queue wait service-wide and on
// its tenant's own histogram.
func (s *Service) observeQueueWait(tr *telemetry.Trace, ten *qos.Tenant, wait stageSum) {
	s.observeSum(s.stageQueueWait, tr, "queue_wait", wait)
	ten.ObserveQueueWait(wait.d)
}

// scanChunk is the most of a one-shot scan's input one pool task scans,
// and the size of the one buffer an HTTP scan reads its body into: a scan
// request holds one chunk of memory, not its body, and a long scan yields
// its worker to other flows between chunks. A smaller chunk saves memory
// and costs a hand-off to the worker per chunk; 256 KiB was chosen on the
// 1 MiB bodies of the ledger's literal_bulk (EXPERIMENTS.md).
const scanChunk = 256 << 10

// Scan runs a one-shot whole-buffer scan of data against a cached
// program, dispatched through the worker pool (so it shares queueing,
// backpressure and accounting with streaming traffic), in chunks of at
// most scanChunk bytes as an HTTP scan's body is (scanChunks). It reads
// data in place.
func (s *Service) Scan(ctx context.Context, programID string, data []byte) ([]refmatch.Match, error) {
	rest := data
	return s.scanChunks(ctx, programID, len(data), func() ([]byte, bool, error) {
		chunk := rest[:min(len(rest), scanChunk)]
		rest = rest[len(chunk):]
		return chunk, len(rest) == 0, nil
	})
}

// scanChunks runs a one-shot scan of the input next yields, chunk by
// chunk with the last one flagged, against the program live at the
// lookup. Each chunk is one pool task on the scan's flow feeding one
// pooled session, so the answer is a whole-buffer scan's. The first chunk
// is admitted as the request (a known length is charged whole with it,
// with length -1 its own bytes) and keeps its queue slot for the later
// chunks, which no full queue or empty bucket refuses: a body of unknown
// length has their bytes debited as they come. A refusal, or an error
// from next (returned as it is), ends the scan with no answer; queue_wait
// and scan are observed once.
func (s *Service) scanChunks(ctx context.Context, programID string, length int, next func() ([]byte, bool, error)) ([]refmatch.Match, error) {
	tr := telemetry.TraceFromContext(ctx)
	prog, ok := s.lookup(tr, programID)
	if !ok {
		return nil, fmt.Errorf("%w: program %s", ErrNotFound, programID)
	}
	ten := s.tenant(ctx)
	flow := s.nextFlow.Add(1)
	st := prog.getSession()
	var (
		matches     []refmatch.Match
		wait, scan  stageSum
		nbytes, nch int
		err         error
	)
	for last := false; !last; {
		var chunk []byte
		if chunk, last, err = next(); err != nil {
			break
		}
		pt, charge := middle, len(chunk)
		switch {
		case nch == 0 && last:
			pt = whole
		case nch == 0:
			pt = first
		case last:
			pt = final
		}
		if length >= 0 {
			charge = noCharge
			if nch == 0 {
				charge = length
			}
		}
		var w stageSum
		if w, err = s.runOn(ten, flow, len(chunk), charge, pt, func() {
			start := time.Now()
			matches = st.FeedInto(chunk, last, matches)
			scan.add(start, time.Since(start))
		}); err != nil {
			break
		}
		wait.add(w.start, w.d)
		nbytes += len(chunk)
		nch++
	}
	if err != nil && nch > 0 {
		s.pool.release(flow, ten) // the slot the first chunk kept
	}
	var pf prefilter.Stats
	if nch > 0 {
		s.observeQueueWait(tr, ten, wait)
		s.observeSum(s.stageScan, tr, "scan", scan, telemetry.L("chunks", strconv.Itoa(nch)))
		pf = st.PrefilterStats()
		s.observePrefilter(tr, prog.Matcher, scan.start, pf)
	}
	prog.putSession(st)
	if err != nil {
		return nil, err
	}
	s.account(prog, nil, ten, nbytes, len(matches), pf)
	return matches, nil
}

// observePrefilter folds one request's prefilter time into the stage
// histogram and trace. The prefilter runs interleaved inside the scan
// stage; its span starts at the scan start with the summed literal-scan
// duration, making the hit/skip economics visible per request. The span
// names the tier and the kernel, which depends on the host's CPU, and
// carries the request's skipped bytes and dirty blocks.
func (s *Service) observePrefilter(tr *telemetry.Trace, m *refmatch.Matcher, scanStart time.Time, pf prefilter.Stats) {
	if pf.ScannedBytes == 0 && pf.SkippedBytes == 0 && pf.WindowNS == 0 {
		return
	}
	d := time.Duration(pf.WindowNS)
	s.stagePrefilter.Observe(d)
	if tr == nil {
		return
	}
	tr.AddSpan("prefilter", scanStart, d,
		telemetry.L("tier", m.PrefilterTier()),
		telemetry.L("kernel", m.PrefilterKernel()),
		telemetry.L("skipped_bytes", strconv.FormatInt(pf.SkippedBytes, 10)),
		telemetry.L("dirty_blocks", strconv.FormatInt(pf.DirtyBlocks, 10)))
}

// OpenSession opens a streaming session against a cached program and
// returns its ID.
func (s *Service) OpenSession(ctx context.Context, programID string) (string, error) {
	tr := telemetry.TraceFromContext(ctx)
	prog, ok := s.lookup(tr, programID)
	if !ok {
		return "", fmt.Errorf("%w: program %s", ErrNotFound, programID)
	}
	ten := s.tenant(ctx)
	if err := ten.AcquireSession(); err != nil {
		return "", err
	}
	sess := &session{
		id:      fmt.Sprintf("sess-%d", s.nextSess.Add(1)),
		prog:    prog,
		owner:   ten,
		flow:    s.nextFlow.Add(1),
		created: time.Now(),
		stream:  prog.getSession(),
	}
	s.mu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		ten.ReleaseSession()
		return "", ErrSessionLimit
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	prog.sessions.Inc()
	s.opened.Inc()
	return sess.id, nil
}

func (s *Service) session(id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: session %s", ErrNotFound, id)
	}
	return sess, nil
}

// Feed streams the next chunk into a session and returns the matches
// ending inside it (global stream offsets). Matches of end-anchored
// patterns arrive from CloseSession, when the stream end is known.
func (s *Service) Feed(ctx context.Context, sessionID string, chunk []byte) ([]refmatch.Match, error) {
	matches, _, err := s.feed(ctx, sessionID, chunk)
	return matches, err
}

// feed is Feed plus the stream offset once this chunk is consumed. The
// offset is read inside the pool task, where the stream belongs to this
// feed alone: with two feeds of one session in flight, a read after the
// task would report whichever ran last.
func (s *Service) feed(ctx context.Context, sessionID string, chunk []byte) ([]refmatch.Match, int, error) {
	sess, err := s.session(sessionID)
	if err != nil {
		return nil, 0, err
	}
	tr := telemetry.TraceFromContext(ctx)
	var matches []refmatch.Match
	var offset int
	var pf prefilter.Stats
	closed := false
	wait, err := s.runOn(sess.owner, sess.flow, len(chunk), len(chunk), whole, func() {
		if sess.closed {
			closed = true
			return
		}
		scanStart := time.Now()
		matches = sess.stream.Feed(chunk)
		offset = sess.stream.Pos()
		s.observeStage(s.stageScan, tr, "scan", scanStart)
		total := sess.stream.PrefilterStats()
		pf = total.Sub(sess.pfSnap)
		sess.pfSnap = total
		s.observePrefilter(tr, sess.prog.Matcher, scanStart, pf)
	})
	if err != nil {
		return nil, 0, err
	}
	s.observeQueueWait(tr, sess.owner, wait)
	if closed {
		return nil, 0, fmt.Errorf("%w: session %s", ErrNotFound, sessionID)
	}
	sess.chunks.Inc()
	s.account(sess.prog, sess, sess.owner, len(chunk), len(matches), pf)
	return matches, offset, nil
}

// CloseSession ends the stream: it returns the end-anchored matches that
// fired at the final byte, plus the session's totals, and frees the slot.
func (s *Service) CloseSession(ctx context.Context, sessionID string) ([]refmatch.Match, SessionSummary, error) {
	sess, err := s.session(sessionID)
	if err != nil {
		return nil, SessionSummary{}, err
	}
	tr := telemetry.TraceFromContext(ctx)
	var final []refmatch.Match
	closed := false
	wait, err := s.runOn(sess.owner, sess.flow, 1, noCharge, whole, func() {
		if sess.closed {
			closed = true
			return
		}
		sess.closed = true
		finishStart := time.Now()
		final = sess.stream.Finish()
		tr.AddSpan("finish", finishStart, time.Since(finishStart))
	})
	if err != nil {
		return nil, SessionSummary{}, err
	}
	s.observeQueueWait(tr, sess.owner, wait)
	if closed {
		return nil, SessionSummary{}, fmt.Errorf("%w: session %s", ErrNotFound, sessionID)
	}
	s.account(sess.prog, sess, sess.owner, 0, len(final), prefilter.Stats{})
	s.mu.Lock()
	delete(s.sessions, sessionID)
	s.mu.Unlock()
	sess.owner.ReleaseSession()
	s.closedCount.Inc()
	summary := sess.summary()
	// The stream is finished and unreachable now; recycle its scratch.
	sess.prog.putSession(sess.stream)
	sess.stream = nil
	return final, summary, nil
}

// DrainedSession is the outcome of force-closing one open session during
// shutdown drain: its end-anchored final matches and totals.
type DrainedSession struct {
	Summary      SessionSummary   `json:"summary"`
	FinalMatches []refmatch.Match `json:"final_matches,omitempty"`
}

// DrainSessions closes every open streaming session, emitting each one's
// end-anchored matches as if the client had closed it. rapserve calls
// this on SIGTERM after the HTTP listener has stopped, so in-flight
// session state is flushed rather than silently dropped. Sessions that
// race with a concurrent client close are skipped; queue-full rejections
// are retried (the pool drains once new traffic stops).
func (s *Service) DrainSessions() []DrainedSession {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]DrainedSession, 0, len(ids))
	for _, id := range ids {
		for {
			final, sum, err := s.CloseSession(context.Background(), id)
			if errors.Is(err, ErrQueueFull) {
				time.Sleep(time.Millisecond)
				continue
			}
			if err == nil {
				out = append(out, DrainedSession{Summary: sum, FinalMatches: final})
			}
			break
		}
	}
	return out
}

// account folds one scan/chunk result into program, session, tenant and
// service counters. pf is this request's prefilter delta (zero when the
// program has no prefiltered patterns).
func (s *Service) account(prog *Program, sess *session, ten *qos.Tenant, nbytes, nmatches int, pf prefilter.Stats) {
	prog.scans.Inc()
	prog.bytes.Add(int64(nbytes))
	prog.matches.Add(int64(nmatches))
	s.scans.Inc()
	s.scanBytes.Add(int64(nbytes))
	s.scanMatches.Add(int64(nmatches))
	s.pfScanned.Add(pf.ScannedBytes)
	s.pfSkipped.Add(pf.SkippedBytes)
	s.pfHits.Add(pf.LiteralHits)
	s.pfWindows.Add(pf.Windows)
	s.pfDirty.Add(pf.DirtyBlocks)
	if tier := prog.Matcher.PrefilterTier(); tier != "" {
		if c := s.pfTier[tier]; c != nil {
			c.Inc()
		}
	}
	if sess != nil {
		sess.bytes.Add(int64(nbytes))
		sess.matches.Add(int64(nmatches))
	}
	if ten != nil {
		ten.AccountScan(nbytes, nmatches)
	}
}

// Stats is the full JSON snapshot served by /stats.
type Stats struct {
	UptimeSeconds float64                              `json:"uptime_seconds"`
	Build         telemetry.BuildInfo                  `json:"build"`
	Scans         int64                                `json:"scans"`
	ScanBytes     int64                                `json:"scan_bytes"`
	ScanMatches   int64                                `json:"scan_matches"`
	ScanLatency   metrics.HistogramSnapshot            `json:"scan_latency"`
	Stages        map[string]metrics.HistogramSnapshot `json:"stages"`
	Cache         CacheStats                           `json:"cache"`
	Pool          PoolStats                            `json:"pool"`
	CompilePool   PoolStats                            `json:"compile_pool"`
	Sessions      SessionStats                         `json:"sessions"`
	Prefilter     PrefilterStats                       `json:"prefilter"`
	Reconfig      ReconfigStats                        `json:"reconfig"`
	QoS           QoSStats                             `json:"qos"`
	Requests      RequestStats                         `json:"requests"`
	Health        HealthSnapshot                       `json:"health"`
	Programs      []ProgramStats                       `json:"programs"`
}

// RequestStats is the /v1/stats requests block: finished API requests
// since start, their 5xx answers, and the answers slower than 250 ms.
// A cluster canary is judged on the change of these between two samples.
type RequestStats struct {
	Total  int64 `json:"total"`
	Errors int64 `json:"5xx"`
	Slow   int64 `json:"slow"`
}

// QoSStats is the /v1/stats qos block: the identity header in force
// and one snapshot per tenant the service has seen.
type QoSStats struct {
	Header  string               `json:"header"`
	Tenants []qos.TenantSnapshot `json:"tenants"`
}

// PrefilterStats aggregates the literal-prefilter fast path across all
// traffic: bytes the match automata actually consumed vs bytes the
// prefilter proved match-free, literal hits, and candidate windows.
// SkipRatio is SkippedBytes over the prefiltered total (0 when no
// prefiltered pattern saw traffic).
type PrefilterStats struct {
	ScannedBytes int64   `json:"scanned_bytes"`
	SkippedBytes int64   `json:"skipped_bytes"`
	LiteralHits  int64   `json:"literal_hits"`
	Windows      int64   `json:"windows"`
	DirtyBlocks  int64   `json:"dirty_blocks"` // 16-byte blocks the teddy kernel could not clear (prefilter.Stats.DirtyBlocks)
	SkipRatio    float64 `json:"skip_ratio"`
}

// ReconfigStats aggregates the live-reconfiguration counters: how many
// hot-swaps ran, the delta bitstream bytes shipped versus the full
// images they replaced, and the modeled fabric reload/stall cycles.
type ReconfigStats struct {
	Updates int64 `json:"updates"`
	// PatternsReused, PatternsRestored and PatternsCompiled split the
	// patterns of every applied update into those taken from the replaced
	// generation, those taken from the generation it had displaced, and
	// those compiled because neither held their text.
	PatternsReused   int64                     `json:"patterns_reused"`
	PatternsRestored int64                     `json:"patterns_restored"`
	PatternsCompiled int64                     `json:"patterns_compiled"`
	DeltaBytes       int64                     `json:"delta_bytes"`
	FullImageBytes   int64                     `json:"full_image_bytes"`
	ReloadCycles     int64                     `json:"reload_cycles"`
	StallCycles      int64                     `json:"stall_cycles"`
	UpdateLatency    metrics.HistogramSnapshot `json:"update_latency"`
	StallWindow      metrics.HistogramSnapshot `json:"stall_window_cycles"`
	DeltaSize        metrics.HistogramSnapshot `json:"delta_size_bytes"`
}

// Stats snapshots every counter in the service.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	open := int64(len(s.sessions))
	s.mu.Unlock()
	return Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         telemetry.Build(),
		Scans:         s.scans.Value(),
		ScanBytes:     s.scanBytes.Value(),
		ScanMatches:   s.scanMatches.Value(),
		ScanLatency:   s.stageScan.Snapshot(),
		Stages: map[string]metrics.HistogramSnapshot{
			"cache_lookup":       s.stageCacheLookup.Snapshot(),
			"compile":            s.stageCompile.Snapshot(),
			"compile_queue_wait": s.stageCompileWait.Snapshot(),
			"queue_wait":         s.stageQueueWait.Snapshot(),
			"scan":               s.stageScan.Snapshot(),
			"prefilter":          s.stagePrefilter.Snapshot(),
			"reconfig_apply":     s.stageApply.Snapshot(),
		},
		Cache:       s.cache.stats(),
		Pool:        s.pool.stats(),
		CompilePool: s.compilers.stats(),
		Sessions: SessionStats{
			Open:   open,
			Opened: s.opened.Value(),
			Closed: s.closedCount.Value(),
		},
		Prefilter: s.prefilterStats(),
		Reconfig: ReconfigStats{
			Updates:          s.updates.Value(),
			PatternsReused:   s.updateReused.Value(),
			PatternsRestored: s.updateRestored.Value(),
			PatternsCompiled: s.updateCompiled.Value(),
			DeltaBytes:       s.updateDeltaBytes.Value(),
			FullImageBytes:   s.updateFullBytes.Value(),
			ReloadCycles:     s.updateReloadCycles.Value(),
			StallCycles:      s.updateStallCycles.Value(),
			UpdateLatency:    s.stageApply.Snapshot(),
			StallWindow:      s.updateStallHist.Snapshot(),
			DeltaSize:        s.updateDeltaHist.Snapshot(),
		},
		QoS: QoSStats{
			Header:  s.qosReg.Header(),
			Tenants: s.qosReg.Snapshot(),
		},
		Requests: RequestStats{
			Total:  s.requests.Value(),
			Errors: s.requests5xx.Value(),
			Slow:   s.requestsSlow.Value(),
		},
		Health:   s.Health(),
		Programs: s.cache.snapshot(),
	}
}

func (s *Service) prefilterStats() PrefilterStats {
	ps := PrefilterStats{
		ScannedBytes: s.pfScanned.Value(),
		SkippedBytes: s.pfSkipped.Value(),
		LiteralHits:  s.pfHits.Value(),
		Windows:      s.pfWindows.Value(),
		DirtyBlocks:  s.pfDirty.Value(),
	}
	if total := ps.ScannedBytes + ps.SkippedBytes; total > 0 {
		ps.SkipRatio = float64(ps.SkippedBytes) / float64(total)
	}
	return ps
}
