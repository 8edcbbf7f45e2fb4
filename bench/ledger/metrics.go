package main

// metricDef is one named ledger row. BENCHMARK.json at the repository
// root lists the same names, units and directions (ledger_test.go holds
// the two in step); bound is the share of the baseline by which an
// end-to-end metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the bounded metrics a client of the served API sees, from
// the timed, untraced run. The bounds are the widest a harness allows:
// ten runs of one commit on the machines this was built on spread by up to
// 11% in a calm quarter of an hour, and the machines are not always calm.
var endToEnd = []metricDef{
	{"payload_mbps", "MB/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// ungated are the other three end-to-end metrics: printed with the four
// above on every run, but in BENCHMARK.json they stand among the unbounded
// rows. A bounded metric must be non-zero and must repeat within its
// bound: failed_share is 0 on every good run (it gates through the exit
// code and the driver line's failed/correct instead), and op_p50_ms and
// op_p90_ms moved 16-43% and 40-90% between runs of one commit on
// small_dense. See README.md, "Criteria not met".
var ungated = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
}

// unbounded is BENCHMARK.json's per_layer list: ungated, then perLayer.
func unbounded() []metricDef { return append(ungated[:len(ungated):len(ungated)], perLayer...) }

// perLayer are the single-layer rows, named module.metric. They have no
// bound: they explain a move in an end-to-end metric, they do not gate.
var perLayer = []metricDef{
	{Name: "simdscan.teddy_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "prefilter.stream_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "prefilter.skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "prefilter.windows_per_mb", Unit: "1/MB", Better: "lower"},
	{Name: "shiftand.ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "nbva.ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "automata.dfa_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "automata.nfa_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "refmatch.scan_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "refmatch.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "refmatch.matches_per_op", Unit: "count", Better: "lower"},
	{Name: "refmatch.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "sfa.parallelizable", Unit: "count", Better: "higher"},
	{Name: "sfa.parallel_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "sfa.critical_path_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "service.scan_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "service.tax_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "service.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "service.feed_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "service.update_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "service.queue_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "http.handler_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "http.tax_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "http.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "http.response_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "rapclient.loopback_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "rapclient.tax_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "rapclient.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.owner_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "cluster.hop_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "cluster.tax_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "cluster.forwards_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.repairs", Unit: "count", Better: "lower"},
	{Name: "compile.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.states_total", Unit: "count", Better: "lower"},
	{Name: "compile.mode_nbva", Unit: "count", Better: "higher"},
	{Name: "compile.mode_lnfa", Unit: "count", Better: "higher"},
	{Name: "compile.mode_nfa", Unit: "count", Better: "lower"},
	{Name: "mapper.map_ms", Unit: "ms", Better: "lower"},
	{Name: "mapper.tiles_used", Unit: "count", Better: "lower"},
	{Name: "bitstream.build_ms", Unit: "ms", Better: "lower"},
	{Name: "bitstream.image_bytes", Unit: "B", Better: "lower"},
	{Name: "reconfig.diff_ms", Unit: "ms", Better: "lower"},
	{Name: "reconfig.delta_bytes", Unit: "B", Better: "lower"},
	{Name: "telemetry.trace_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "qos.admit_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "proc.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "proc.goroutines_leaked", Unit: "count", Better: "lower"},
	{Name: "proc.steal_share", Unit: "ratio", Better: "lower"},
	{Name: "client.ops", Unit: "count", Better: "higher"},
	{Name: "client.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.payload_mbps_median", Unit: "MB/s", Better: "higher"},
	{Name: "client.cpu_ms_per_op_median", Unit: "ms", Better: "lower"},
	{Name: "client.steal_slope", Unit: "ratio", Better: "lower"},
	{Name: "client.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.refused", Unit: "count", Better: "lower"},
	{Name: "client.wrong_matchsets", Unit: "count", Better: "lower"},
}
