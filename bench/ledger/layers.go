package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/mapper"
	"repro/internal/prefilter"
	"repro/internal/qos"
	"repro/internal/reconfig"
	"repro/internal/refmatch"
	"repro/internal/regexast"
	"repro/internal/service"
	"repro/internal/simdscan"
	"repro/internal/telemetry"
	"repro/pkg/rapclient"
)

// buildReps is how often the compile path is rebuilt; each stage's row is
// the median.
const buildReps = 5

// span is one timed call into one layer for one replayed op. The replay
// is sequential — op k goes through every layer in turn, one call at a
// time — so a child span does not sit inside its parent on the clock;
// Parent names the next layer out, and a layer's tax is its median span
// minus its child's.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Layer    string `json:"layer"`
	Parent   string `json:"parent,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// layer is one boundary the replay calls into. prep and post run
// untimed around the timed call (building a request, closing a session).
type layer struct {
	name, parent string
	prep, post   func(op int)
	call         func(op int) error
}

// layerCost is what a layer's calls cost: the median call and the mean
// heap allocations per call.
type layerCost struct{ ns, allocs float64 }

// trace holds the spans of one workload's replay in memory until exit.
type trace struct {
	workload string
	origin   time.Time
	spans    []span
}

// replay sends ops through the layers op-major — op 0 through every
// layer, then op 1 — so that drift in the machine's speed during the
// replay lands on every layer alike and cancels out of the taxes.
func (tr *trace) replay(layers []layer, ops int) (map[string]layerCost, error) {
	durs := make([][]float64, len(layers))
	allocs := make([]uint64, len(layers))
	for op := 0; op < ops; op++ {
		for i, l := range layers {
			if l.prep != nil {
				l.prep(op)
			}
			a0, _, _ := runtimeCounters()
			start := time.Since(tr.origin)
			err := l.call(op)
			end := time.Since(tr.origin)
			a1, _, _ := runtimeCounters()
			if err != nil {
				return nil, fmt.Errorf("%s op %d: %w", l.name, op, err)
			}
			if l.post != nil {
				l.post(op)
			}
			tr.spans = append(tr.spans, span{tr.workload, op, l.name, l.parent, int64(start), int64(end)})
			durs[i] = append(durs[i], float64(end-start))
			allocs[i] += a1 - a0
		}
	}
	out := map[string]layerCost{}
	for i, l := range layers {
		out[l.name] = layerCost{median(durs[i]), float64(allocs[i]) / float64(ops)}
	}
	return out, nil
}

// literalUnion rebuilds the mandatory-literal set refmatch hands the
// prefilter for rules: the literals of every prefiltered Shift-And
// pattern and the longest such pattern as the window.
func literalUnion(rules []string, m *refmatch.Matcher) (lits [][]byte, window int) {
	for i, v := range m.PrefilterVerdicts() {
		if !v.Prefilterable {
			continue
		}
		re, err := regexast.Parse(rules[i])
		if err != nil {
			continue
		}
		l, _ := prefilter.Analyze(re.Root)
		lits = append(lits, l...)
		seqs, _ := regexast.Linearize(re.Root, 2*re.Root.States())
		for _, s := range seqs {
			window = max(window, len(s))
		}
	}
	return lits, window
}

// tracedReplay prices every layer on the workload's own inputs: each
// body goes, single-threaded, through each layer's public entry point,
// innermost kernel to cluster gateway, and the compile path is rebuilt
// stage by stage. The rows go into rows.
func tracedReplay(s spec, in *inputs, rows map[string]float64) (*trace, error) {
	ctx := context.Background()
	tr := &trace{workload: s.name, origin: time.Now()}
	body := func(op int) []byte { return in.bodies[op%len(in.bodies)] }
	m, err := refmatch.Compile(ctx, in.rules[0], refmatch.Options{})
	if err != nil {
		return nil, err
	}
	var scans []layer

	// Kernels under the matcher: the literal scanner alone, then the
	// streaming prefilter handing its windows to a no-op automaton.
	if lits, window := literalUnion(in.rules[0], m); len(lits) > 0 {
		set, err := prefilter.NewSet(lits, window)
		if err != nil {
			return nil, err
		}
		// Outside the teddy tier the kernel row prices the first literals
		// teddy accepts, so the row exists on every ruleset.
		var eligible [][]byte
		for _, l := range lits {
			if len(l) >= simdscan.TeddyMinLiteralLen && len(eligible) < simdscan.TeddyMaxLiterals {
				eligible = append(eligible, l)
			}
		}
		if teddy, err := simdscan.NewTeddy(eligible); err == nil {
			scans = append(scans, layer{name: "simdscan", parent: "prefilter", call: func(op int) error {
				teddy.Scan(body(op), nil, simdscan.TeddyState{}, func(int) {})
				return nil
			}})
		}
		stream := set.NewStream()
		scans = append(scans, layer{name: "prefilter", parent: "refmatch", call: func(op int) error {
			stream.Reset()
			stream.Scan(body(op), func(int, []byte) {}, func() {})
			return nil
		}})
	}

	// The engines one at a time: the ruleset split by the engine refmatch
	// chose per pattern, each part compiled alone with the prefilter off.
	for _, e := range []struct {
		name   string
		engine refmatch.Engine
	}{
		{"shiftand", refmatch.EngineShiftAnd}, {"nbva", refmatch.EngineNBVA},
		{"automata.dfa", refmatch.EngineDFA}, {"automata.nfa", refmatch.EngineNFA},
	} {
		var part []string
		for i, got := range m.Engines() {
			if got == e.engine {
				part = append(part, in.rules[0][i])
			}
		}
		if len(part) == 0 {
			continue
		}
		pm, err := refmatch.Compile(ctx, part, refmatch.Options{DisablePrefilter: true})
		if err != nil {
			return nil, err
		}
		sess, buf := pm.NewSession(), []refmatch.Match(nil)
		scans = append(scans, layer{name: e.name, parent: "refmatch", call: func(op int) error {
			buf = sess.ScanInto(body(op), buf[:0])
			return nil
		}})
	}

	// refmatch: the whole matcher on a reused session. SFA: the
	// data-parallel path as the service takes it — try ScanParallel, fall
	// back to the serial scan when the set refuses.
	sess, buf := m.NewSession(), []refmatch.Match(nil)
	matches := 0
	var critical []float64
	scans = append(scans, layer{name: "refmatch", parent: "service", call: func(op int) error {
		buf = sess.ScanInto(body(op), buf[:0])
		matches += len(buf)
		return nil
	}}, layer{name: "sfa", parent: "service", call: func(op int) error {
		t0 := time.Now()
		if _, err := sess.ScanParallel(ctx, body(op), numClients()); err != nil {
			buf = sess.ScanInto(body(op), buf[:0])
			critical = append(critical, float64(time.Since(t0)))
			return nil
		}
		critical = append(critical, float64(sess.ParallelStats().CriticalPathNS()))
		return nil
	}})

	// service → http → rapclient on one fresh default node.
	svc := service.New(service.Config{})
	defer svc.Close()
	prog, _, err := svc.Compile(ctx, in.rules[0], service.CompileOptions{})
	if err != nil {
		return nil, err
	}
	handler := svc.Handler()
	srv := httptest.NewServer(handler)
	defer srv.Close()
	cl := newClient(srv.URL)
	scanVia := func(cl *rapclient.Client, id string) func(int) error {
		return func(op int) error {
			res, err := cl.Scan(ctx, id, body(op))
			if err == nil && !sameSet(res.Matches, in.want[0][op%len(in.bodies)]) {
				err = fmt.Errorf("match set differs from the oracle")
			}
			return err
		}
	}
	var sid string
	var req *http.Request
	var rec *httptest.ResponseRecorder
	respBytes := 0
	scans = append(scans, layer{name: "service", parent: "http", call: func(op int) error {
		_, err := svc.Scan(ctx, prog.ID, body(op))
		return err
	}}, layer{name: "service.feed", prep: func(int) { sid, _ = svc.OpenSession(ctx, prog.ID) },
		call: func(op int) error {
			chunk := s.bodyLen / sessionChunks
			for off := 0; off+chunk <= s.bodyLen; off += chunk {
				if _, err := svc.Feed(ctx, sid, body(op)[off:off+chunk]); err != nil {
					return err
				}
			}
			return nil
		}, post: func(int) { svc.CloseSession(ctx, sid) },
	}, layer{name: "http", parent: "rapclient", prep: func(op int) {
		req = httptest.NewRequest(http.MethodPost, "/v1/programs/"+prog.ID+"/scan", bytes.NewReader(body(op)))
		rec = httptest.NewRecorder()
	}, call: func(int) error {
		handler.ServeHTTP(rec, req)
		respBytes += rec.Body.Len()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d", rec.Code)
		}
		return nil
	}}, layer{name: "rapclient", parent: "cluster.owner", call: scanVia(cl, prog.ID)})

	cost, err := tr.replay(scans, s.replay)
	if err != nil {
		return nil, err
	}

	// The cluster layer, replayed apart so that three nodes' gossip does
	// not allocate into the rows above: the same scans sent past the
	// cluster to the single node (the bypass), to the program's owner,
	// and to a gateway that must forward them.
	cs := s
	cs.shape = clusterHop
	ct, err := setUp(cs, in)
	if err != nil {
		return nil, err
	}
	defer ct.stop()
	forwards := scrape(ct.nodeURLs, "rap_node_forwards_total")
	hops, err := tr.replay([]layer{
		{name: "cluster.bypass", parent: "cluster.owner", call: scanVia(cl, prog.ID)},
		{name: "cluster.owner", parent: "cluster.hop", call: scanVia(newClient(ct.nodeURLs[0]), ct.progID)},
		{name: "cluster.hop", call: scanVia(newClient(ct.urls[0]), ct.progID)},
	}, s.replay)
	if err != nil {
		return nil, err
	}
	forwards = scrape(ct.nodeURLs, "rap_node_forwards_total") - forwards

	// A layer the ruleset gives nothing to do (an engine without patterns)
	// is absent from cost and reads 0.
	perByte := func(layer string) float64 { return cost[layer].ns / float64(s.bodyLen) }
	rows["simdscan.teddy_ns_per_byte"] = perByte("simdscan")
	rows["prefilter.stream_ns_per_byte"] = perByte("prefilter")
	rows["shiftand.ns_per_byte"] = perByte("shiftand")
	rows["nbva.ns_per_byte"] = perByte("nbva")
	rows["automata.dfa_ns_per_byte"] = perByte("automata.dfa")
	rows["automata.nfa_ns_per_byte"] = perByte("automata.nfa")
	rows["refmatch.scan_ns_per_byte"] = perByte("refmatch")
	rows["refmatch.allocs_per_op"] = cost["refmatch"].allocs
	rows["refmatch.matches_per_op"] = float64(matches) / float64(s.replay)
	rows["sfa.parallelizable"] = 0
	if m.Parallelizable() == nil {
		rows["sfa.parallelizable"] = 1
	}
	rows["sfa.parallel_ns_per_byte"] = perByte("sfa")
	rows["sfa.critical_path_ns_per_byte"] = median(critical) / float64(s.bodyLen)
	rows["service.scan_ns_per_op"] = cost["service"].ns
	rows["service.tax_ns_per_op"] = cost["service"].ns - cost["refmatch"].ns
	rows["service.allocs_per_op"] = cost["service"].allocs
	rows["service.feed_ns_per_op"] = cost["service.feed"].ns / sessionChunks
	rows["http.handler_ns_per_op"] = cost["http"].ns
	rows["http.tax_ns_per_op"] = cost["http"].ns - cost["service"].ns
	rows["http.allocs_per_op"] = cost["http"].allocs
	rows["http.response_bytes_per_op"] = float64(respBytes) / float64(s.replay)
	rows["rapclient.loopback_ns_per_op"] = cost["rapclient"].ns
	rows["rapclient.tax_ns_per_op"] = cost["rapclient"].ns - cost["http"].ns
	rows["rapclient.allocs_per_op"] = cost["rapclient"].allocs
	rows["cluster.owner_ns_per_op"] = hops["cluster.owner"].ns
	rows["cluster.hop_ns_per_op"] = hops["cluster.hop"].ns
	rows["cluster.tax_ns_per_op"] = hops["cluster.hop"].ns - hops["cluster.bypass"].ns
	rows["cluster.forwards_per_op"] = forwards / float64(s.replay)
	rows["cluster.repairs"] = scrape(ct.nodeURLs, "rap_node_repairs_total")
	sess.ScanInto(body(0), buf[:0])
	pf := sess.PrefilterStats() // of that one serial scan
	if total := pf.ScannedBytes + pf.SkippedBytes; total > 0 {
		rows["prefilter.skip_ratio"] = float64(pf.SkippedBytes) / float64(total)
		rows["prefilter.windows_per_mb"] = float64(pf.Windows) / (float64(total) / 1e6)
	}

	// The compile path, stage by stage on both rulesets, then as the
	// service runs it for an update, direct and over the wire.
	var res [2]*compile.Result
	var place [2]*arch.Placement
	var img [2]*bitstream.Image
	both := func(stage func(g int) error) func(int) error {
		return func(int) error {
			for g := range in.rules {
				if err := stage(g); err != nil {
					return err
				}
			}
			return nil
		}
	}
	cost, err = tr.replay([]layer{
		{name: "refmatch.compile", parent: "service.update", call: both(func(g int) (err error) {
			_, err = refmatch.Compile(ctx, in.rules[g], refmatch.Options{})
			return err
		})},
		{name: "compile", parent: "service.update", call: both(func(g int) (err error) {
			res[g], err = compile.CompileContext(ctx, in.rules[g], compile.Options{})
			return err
		})},
		{name: "mapper", parent: "service.update", call: both(func(g int) (err error) {
			place[g], err = mapper.Map(res[g], mapper.Options{})
			return err
		})},
		{name: "bitstream", parent: "service.update", call: both(func(g int) (err error) {
			img[g], err = bitstream.Build(res[g], place[g])
			return err
		})},
		{name: "reconfig", parent: "service.update", call: func(int) error {
			data, err := reconfig.Diff(img[0], img[1]).MarshalBinary()
			rows["reconfig.delta_bytes"] = float64(len(data))
			return err
		}},
		{name: "service.update", parent: "rapclient.update", call: func(op int) error {
			_, err := svc.Update(ctx, prog.ID, in.rules[(op+1)%2], service.CompileOptions{})
			return err
		}},
		{name: "rapclient.update", call: func(op int) error {
			_, err := cl.Update(ctx, prog.ID, in.rules[op%2], nil)
			return err
		}},
	}, buildReps)
	if err != nil {
		return nil, err
	}
	perRuleset := func(layer string) float64 { return cost[layer].ns / 1e6 / float64(len(in.rules)) }
	rows["refmatch.compile_ms"] = perRuleset("refmatch.compile")
	rows["compile.compile_ms"] = perRuleset("compile")
	rows["mapper.map_ms"] = perRuleset("mapper")
	rows["bitstream.build_ms"] = perRuleset("bitstream")
	rows["reconfig.diff_ms"] = cost["reconfig"].ns / 1e6
	rows["service.update_ms"] = cost["service.update"].ns / 1e6
	for _, c := range res[0].Regexes {
		rows["compile.states_total"] += float64(c.STEs)
	}
	rows["compile.mode_nbva"] = float64(len(res[0].ByMode(compile.ModeNBVA)))
	rows["compile.mode_lnfa"] = float64(len(res[0].ByMode(compile.ModeLNFA)))
	rows["compile.mode_nfa"] = float64(len(res[0].ByMode(compile.ModeNFA)))
	rows["mapper.tiles_used"] = float64(place[0].TilesUsed())
	rows["bitstream.image_bytes"] = float64(img[0].SizeBytes())

	// What the request path pays per request for its own bookkeeping.
	const reps = 4000
	tracer := telemetry.NewTracer(128, 0)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		t := tracer.Start("scan", "")
		for _, name := range []string{"cache_lookup", "queue_wait", "scan", "prefilter"} {
			t.AddSpan(name, t0, time.Microsecond)
		}
		tracer.Finish(t)
	}
	rows["telemetry.trace_ns_per_req"] = float64(time.Since(t0)) / reps
	tenant := qos.NewRegistry(qos.Config{}).Tenant("")
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if err := tenant.AdmitScan(s.bodyLen); err != nil {
			return nil, err
		}
		tenant.AccountScan(s.bodyLen, 1)
	}
	rows["qos.admit_ns_per_op"] = float64(time.Since(t0)) / reps
	return tr, nil
}
