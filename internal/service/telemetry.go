package service

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// registerMetrics wires every service counter, gauge and histogram into
// the telemetry registry under stable Prometheus names. Static
// instruments (stage histograms, traffic counters) are registered once;
// per-program series are emitted by a collector at scrape time, so the
// label set tracks the live program cache through compiles, hot-swaps
// and evictions without registration bookkeeping.
func (s *Service) registerMetrics() {
	r := s.tel

	// Per-stage request latency: the serving analogue of the paper's
	// per-component cost breakdowns (§3.3, Table 2).
	const stageHelp = "Per-stage request latency in microseconds."
	s.stageCacheLookup = r.Histogram("rap_stage_duration_us", stageHelp, telemetry.L("stage", "cache_lookup"))
	s.stageCompile = r.Histogram("rap_stage_duration_us", stageHelp, telemetry.L("stage", "compile"))
	s.stageCompileWait = r.Histogram("rap_stage_duration_us", stageHelp, telemetry.L("stage", "compile_queue_wait"))
	s.stageQueueWait = r.Histogram("rap_stage_duration_us", stageHelp, telemetry.L("stage", "queue_wait"))
	s.stageScan = r.Histogram("rap_stage_duration_us", stageHelp, telemetry.L("stage", "scan"))
	s.stagePrefilter = r.Histogram("rap_stage_duration_us", stageHelp, telemetry.L("stage", "prefilter"))
	s.stageApply = r.Histogram("rap_stage_duration_us", stageHelp, telemetry.L("stage", "reconfig_apply"))
	s.stageBodyRead = r.Histogram("rap_stage_duration_us", stageHelp, telemetry.L("stage", "body_read"))
	s.stageEncode = r.Histogram("rap_stage_duration_us", stageHelp, telemetry.L("stage", "encode"))

	// Traffic totals.
	s.scans = r.Counter("rap_scans_total", "One-shot scans plus streamed chunks processed.")
	s.scanBytes = r.Counter("rap_scan_bytes_total", "Input bytes scanned.")
	s.scanMatches = r.Counter("rap_scan_matches_total", "Matches reported.")

	// Literal-prefilter fast path: the hit/skip economics of confining
	// the match automata to candidate windows around mandatory literals.
	s.pfScanned = r.Counter("rap_prefilter_scanned_bytes_total", "Bytes the match automata consumed inside candidate windows.")
	s.pfSkipped = r.Counter("rap_prefilter_skipped_bytes_total", "Bytes the literal prefilter proved match-free and skipped.")
	s.pfHits = r.Counter("rap_prefilter_literal_hits_total", "Mandatory-literal occurrences found by the prefilter.")
	s.pfWindows = r.Counter("rap_prefilter_windows_total", "Candidate windows delivered to the match automata.")
	s.pfDirty = r.Counter("rap_prefilter_dirty_blocks_total", "16-byte blocks the fingerprint tier could not clear without an exact look (portable kernel: behind a failed pair-filter probe; AVX2: holding a candidate for verify); near scanned bytes/16 means traffic defeats the filter.")
	s.pfTier = map[string]*metrics.Counter{}
	const tierHelp = "Scans and chunks served, by the candidate-scanner tier of the program's literal union."
	for _, tier := range []string{"memchr", "bytetable", "teddy", "ac"} {
		s.pfTier[tier] = r.Counter("rap_prefilter_tier", tierHelp, telemetry.L("tier", tier))
	}

	// Session table.
	s.opened = r.Counter("rap_sessions_opened_total", "Streaming sessions opened.")
	s.closedCount = r.Counter("rap_sessions_closed_total", "Streaming sessions closed.")
	r.GaugeFunc("rap_sessions_open", "Streaming sessions currently open.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sessions))
	})

	// Worker pool: queue depth is the live backpressure signal (the
	// software analogue of the §3.3 input-FIFO occupancy).
	r.RegisterGauge("rap_queue_depth", "Tasks queued across all worker shards.", &s.pool.queued)
	r.RegisterCounter("rap_pool_tasks_submitted_total", "Tasks accepted by the worker pool.", &s.pool.submitted)
	r.RegisterCounter("rap_pool_tasks_rejected_total", "Tasks rejected with queue-full backpressure.", &s.pool.rejected)
	r.RegisterCounter("rap_pool_context_switches_total", "Worker flow changes between consecutive tasks.", &s.pool.switches)
	r.GaugeFunc("rap_pool_workers", "Worker shard count.", func() float64 { return float64(len(s.pool.shards)) })
	r.GaugeFunc("rap_queue_capacity", "Queue capacity per tenant queue per worker shard.", func() float64 {
		return float64(s.pool.queueDepth)
	})

	// Dedicated compile pool: ruleset compiles queue here instead of on
	// the scan shards, so a slow PUT /programs never stalls match traffic.
	r.RegisterGauge("rap_compile_queue_depth", "Compiles queued on the dedicated compile pool.", &s.compilers.queued)
	r.RegisterCounter("rap_compile_tasks_submitted_total", "Compiles accepted by the compile pool.", &s.compilers.submitted)
	r.RegisterCounter("rap_compile_tasks_rejected_total", "Compiles rejected with queue-full backpressure.", &s.compilers.rejected)
	r.GaugeFunc("rap_compile_workers", "Compile pool worker count.", func() float64 { return float64(len(s.compilers.shards)) })
	const updatePatternsHelp = "Patterns of applied hot-swaps, by whether the replaced generation (reused) or the one it displaced (restored) already held them compiled."
	s.updateReused = r.Counter("rap_update_patterns_total", updatePatternsHelp, telemetry.L("outcome", "reused"))
	s.updateRestored = r.Counter("rap_update_patterns_total", updatePatternsHelp, telemetry.L("outcome", "restored"))
	s.updateCompiled = r.Counter("rap_update_patterns_total", updatePatternsHelp, telemetry.L("outcome", "compiled"))
	s.updateRepacks = r.Counter("rap_update_repack_total", "Hot-swaps whose placement fell back to a cold pack instead of keeping the served one's.")

	// Program cache.
	r.RegisterCounter("rap_cache_hits_total", "Program cache hits.", &s.cache.hits)
	r.RegisterCounter("rap_cache_coalesced_total", "Compiles joined in flight (single-flight).", &s.cache.coalesced)
	r.RegisterCounter("rap_cache_misses_total", "Compiles started.", &s.cache.misses)
	r.RegisterCounter("rap_cache_evictions_total", "Programs evicted from the LRU.", &s.cache.evictions)
	r.GaugeFunc("rap_cache_size", "Programs currently cached.", func() float64 { return float64(s.cache.len()) })

	// Live reconfiguration (Service.Update): totals plus per-update
	// stall-window and delta-size distributions.
	s.updates = r.Counter("rap_reconfig_updates_total", "Ruleset hot-swaps applied.")
	s.updateDeltaBytes = r.Counter("rap_reconfig_delta_bytes_total", "Delta bitstream bytes shipped.")
	s.updateFullBytes = r.Counter("rap_reconfig_full_image_bytes_total", "Full image bytes the deltas replaced.")
	s.updateReloadCycles = r.Counter("rap_reconfig_reload_cycles_total", "Modeled fabric reload cycles.")
	s.updateStallCycles = r.Counter("rap_reconfig_stall_cycles_total", "Modeled match-pipeline stall cycles.")
	s.updateStallHist = r.Histogram("rap_reconfig_stall_window_cycles", "Stall window per hot-swap, in modeled cycles.")
	s.updateDeltaHist = r.Histogram("rap_reconfig_delta_size_bytes", "Delta bitstream size per hot-swap, in bytes.")

	// Process identity: uptime plus build info, so scrapes are
	// attributable to a binary version.
	r.GaugeFunc("rap_process_uptime_seconds", "Seconds since the service started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	telemetry.RegisterBuildInfo(r)

	// Multi-tenant QoS: per-tenant series.
	r.Collect(func(c *telemetry.Collector) {
		for _, ts := range s.qosReg.Snapshot() {
			lbl := telemetry.L("tenant", ts.Name)
			c.Counter("rap_tenant_scans_total", "Scans and chunks per tenant.", float64(ts.Scans), lbl)
			c.Counter("rap_tenant_scan_bytes_total", "Bytes scanned per tenant.", float64(ts.ScanBytes), lbl)
			c.Counter("rap_tenant_scan_matches_total", "Matches reported per tenant.", float64(ts.ScanMatches), lbl)
			c.Counter("rap_tenant_compiles_total", "Ruleset compiles run per tenant.", float64(ts.Compiles), lbl)
			for res, n := range ts.Throttled {
				c.Counter("rap_tenant_throttled_total", "Admissions rejected per tenant, by resource.",
					float64(n), lbl, telemetry.L("resource", res))
			}
			c.Gauge("rap_tenant_weight", "Fair-queueing weight per tenant.", float64(ts.Limits.Weight), lbl)
			c.Gauge("rap_tenant_sessions_open", "Streaming sessions currently open per tenant.", float64(ts.SessionsOpen), lbl)
			c.Gauge("rap_tenant_compile_slots_in_use", "Compile slots currently held per tenant.", float64(ts.CompilesInFlight), lbl)
			c.Gauge("rap_tenant_cache_bytes", "Modeled program-cache bytes charged per tenant.", float64(ts.CacheBytes), lbl)
			c.Gauge("rap_tenant_bucket_level_bytes", "Scan-bandwidth token-bucket level per tenant (negative = debt).", float64(ts.BucketLevelBytes), lbl)
		}
		for _, t := range s.qosReg.Tenants() {
			c.Histogram("rap_tenant_queue_wait_us", "Worker-queue wait per tenant, in microseconds.",
				t.QueueWait(), telemetry.L("tenant", t.Name()))
		}
	})

	// SLO loop: breach totals, health score, and per-objective burn
	// rates emitted at scrape time.
	r.RegisterCounter("rap_slo_breaches_total", "SLO objective state escalations recorded.", s.sloEng.BreachCounter())
	r.GaugeFunc("rap_health_score", "Overall node health score in [0,1] (minimum component score).", s.health.Score)
	r.Collect(func(c *telemetry.Collector) {
		for _, st := range s.sloEng.Statuses() {
			if st.Tenant != "" {
				continue // per-tenant burn shows up in the rap_tenant_queue_wait_us series
			}
			lbl := telemetry.L("objective", st.Name)
			c.Gauge("rap_slo_burn_rate", "SLO burn rate per objective and window.", st.FastBurn, lbl, telemetry.L("window", "fast"))
			c.Gauge("rap_slo_burn_rate", "SLO burn rate per objective and window.", st.SlowBurn, lbl, telemetry.L("window", "slow"))
			c.Gauge("rap_slo_objective_state", "SLO objective state (0 = ok, 1 = fast_burn, 2 = breach).", float64(sloStateNum(st.State)), lbl)
		}
	})

	// Per-program series, one label dimension over the live cache.
	r.Collect(func(c *telemetry.Collector) {
		for _, ps := range s.cache.snapshot() {
			lbl := telemetry.L("program", ps.ID)
			c.Counter("rap_program_scans_total", "Scans and chunks per program.", float64(ps.Scans), lbl)
			c.Counter("rap_program_scan_bytes_total", "Bytes scanned per program.", float64(ps.Bytes), lbl)
			c.Counter("rap_program_matches_total", "Matches per program.", float64(ps.Matches), lbl)
			c.Counter("rap_program_sessions_total", "Sessions ever opened per program.", float64(ps.Sessions), lbl)
			c.Gauge("rap_program_generation", "Hot-swap generation per program (0 = initial deploy).", float64(ps.Generation), lbl)
		}
	})
}

// sloStateNum maps an objective state to its metric value.
func sloStateNum(state string) int {
	switch state {
	case slo.StateBreach:
		return 2
	case slo.StateFastBurn:
		return 1
	default:
		return 0
	}
}

// Telemetry returns the service's metric registry, so binaries can
// register additional collectors (e.g. Go runtime metrics) on the same
// /metrics endpoint.
func (s *Service) Telemetry() *telemetry.Registry { return s.tel }
