package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/reconfig"
	"repro/internal/refmatch"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// tenthSwapped returns the dataset's patterns and a copy with every tenth
// one taken from the same dataset under another seed: the two generations
// the ledger's hot_swap workload alternates.
func tenthSwapped(name string, scale float64) (base, swapped []string) {
	d := workload.MustGenerate(name, scale, 1)
	other := workload.MustGenerate(name, scale, 2)
	swapped = append([]string(nil), d.Patterns...)
	for i := 0; i < len(swapped) && i < len(other.Patterns); i += 10 {
		swapped[i] = other.Patterns[i]
	}
	return d.Patterns, swapped
}

// updateAllocCeiling and updateBytesCeiling bound what one Update of
// Snort@1.0 with a tenth of its patterns changed may allocate (49 531
// allocs/op before updates reused the served generation; 7 795 and 1.93 MB
// while the placement was cloned per regex and the images were marshalled
// to be checksummed; 4 306 while shiftand.New allocated a label vector per
// byte value, 4 051 and 0.74 MB with the 256 cut from one slab, while every
// update re-placed the whole ruleset; 3 359 and 0.59 MB since it keeps the
// served placement and prefilter analysis).
const (
	updateAllocCeiling = 3600
	updateBytesCeiling = 640 << 10
)

// BenchmarkUpdate is the ledger's hot_swap update in isolation: Snort@1.0,
// every tenth pattern alternating between two generations.
func BenchmarkUpdate(b *testing.B) {
	rules := [2][]string{}
	rules[0], rules[1] = tenthSwapped("Snort", 1)
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	prog, _, err := s.Compile(ctx, rules[0], CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	deltaBytes := 0
	update := func(i int) {
		res, err := s.Update(ctx, prog.ID, rules[(i+1)%2], CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		deltaBytes = res.DeltaBytes
	}
	update(0) // the first swap also builds the displaced program's image
	update(1)
	repacks := s.updateRepacks.Value()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(deltaBytes), "delta_B")
	if n := s.updateRepacks.Value() - repacks; n != 0 {
		b.Errorf("%d of %d updates repacked the placement", n, b.N)
	}
	// The framework's one-iteration probe is too short to average over.
	if b.N < 10 {
		return
	}
	if perOp := (after.Mallocs - before.Mallocs) / uint64(b.N); perOp > updateAllocCeiling {
		b.Errorf("%d allocs per update, ceiling %d", perOp, updateAllocCeiling)
	}
	if perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N); perOp > updateBytesCeiling {
		b.Errorf("%d bytes allocated per update, ceiling %d", perOp, updateBytesCeiling)
	}
}

// BenchmarkBuildImage is the hardware half of a first deploy on its own: a
// cold mapper.Map + bitstream.Build of Snort@1.0's compiled ruleset.
func BenchmarkBuildImage(b *testing.B) {
	d := workload.MustGenerate("Snort", 1, 1)
	res, err := compile.CompileContext(context.Background(), d.Patterns, CompileOptions{}.options().FrontEnd())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := deploy(nil, nil, nil, res); err != nil {
			b.Fatal(err)
		}
	}
}

// coldBuild is the oracle of the incremental tests: the same list compiled
// with nothing to reuse — refmatch.Compile's two steps, kept apart for the
// Result — and its deployment image.
func coldBuild(t *testing.T, patterns []string, opts CompileOptions) (*compile.Result, *refmatch.Matcher, *bitstream.Image) {
	t.Helper()
	ro := opts.options()
	res, err := compile.CompileContext(context.Background(), patterns, ro.FrontEnd())
	if err != nil {
		t.Fatal(err)
	}
	m, err := refmatch.FromResult(res, ro)
	if err != nil {
		t.Fatal(err)
	}
	img, _, _, err := deploy(nil, nil, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	return res, m, img
}

func marshalImage(t *testing.T, img *bitstream.Image) []byte {
	t.Helper()
	data, err := img.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// wantUpdateResult is what Update must report for the swap oldImg → newImg,
// worked out from the two images alone.
func wantUpdateResult(t *testing.T, id string, gen int64, patterns int, oldImg, newImg *bitstream.Image) UpdateResult {
	t.Helper()
	delta := reconfig.Diff(oldImg, newImg)
	data, err := delta.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := reconfig.Schedule(delta, newImg)
	if err != nil {
		t.Fatal(err)
	}
	cost, full := reconfig.CostOf(delta), reconfig.FullCost(newImg)
	return UpdateResult{
		ProgramID: id, Generation: gen, NumPatterns: patterns,
		DeltaBytes: len(data), FullImageBytes: len(marshalImage(t, newImg)), DeltaRecords: delta.Records(),
		ArraysTouched: len(delta.TouchedArrays()), ArraysUntouched: plan.UntouchedArrays,
		ReloadCycles: cost.ReloadCycles, FullReloadCycles: full.ReloadCycles, StallCycles: plan.StallCycles,
		EnergyPJ: cost.EnergyPJ, ModelLatencyUS: plan.LatencyUS(),
	}
}

// feedChunked streams input through a new session of m in the given chunk
// sizes (cycled) and returns every match in the order reported.
func feedChunked(m *refmatch.Matcher, input []byte, sizes []int) []refmatch.Match {
	sess := m.NewSession()
	var out []refmatch.Match
	for i := 0; len(input) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(input))
		out = append(out, sess.Feed(input[:n])...)
		input = input[n:]
	}
	return append(out, sess.Finish()...)
}

// textsHeld counts the patterns of next whose text prev holds: what an
// update from prev to next under the same options must reuse.
func textsHeld(prev, next []string) int {
	held := make(map[string]bool, len(prev))
	for _, p := range prev {
		held[p] = true
	}
	n := 0
	for _, p := range next {
		if held[p] {
			n++
		}
	}
	return n
}

// The edits of TestIncrementalEqualsCold's scripts.
const (
	editReplace = iota
	editInsert
	editDelete
	editReorder
	editDuplicate
	editRevert
	editOption
	numEdits
)

// TestIncrementalEqualsCold: a chain of updates that each reuse what the
// generation they replace already compiled serves, step for step, what a
// cold compile of the same list serves. Seeded random edit scripts over
// three datasets; after every update the served program and the cold one
// must agree on the compile Result, the engine and kernel of every pattern,
// the prefilter verdicts and the matches of an input with the list's own
// exemplars planted, scanned whole and in random chunks. The image is built
// on the served one's placement, so it is not a cold image: it must be the
// image of its own placement built whole, the delta must take the image it
// replaced to it, and the UpdateResult must be that delta's. The reuse
// count is checked too: every text the replaced generation held, or none
// when a front-end option changed.
func TestIncrementalEqualsCold(t *testing.T) {
	for _, name := range []string{"Snort", "ClamAV", "RegexLib"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d := workload.MustGenerate(name, 1, 1)
			fresh := workload.MustGenerate(name, 1, 2).Patterns // texts no generation has seen yet
			rng := rand.New(rand.NewSource(int64(len(name))))
			s := New(Config{})
			defer s.Close()
			ctx := context.Background()

			cur, opts := append([]string(nil), d.Patterns...), CompileOptions{}
			prog, _, err := s.Compile(ctx, cur, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, _, prevImg := coldBuild(t, cur, opts)
			history := [][]string{cur}
			optionEdits := 0
			for step := 1; step <= 20; step++ {
				prev, prevOpts := cur, opts
				cur = append([]string(nil), cur...)
				at := func() int { return rng.Intn(len(cur)) }
				edit := (step - 1) % numEdits
				switch edit {
				case editReplace:
					for k := 1 + rng.Intn(len(cur)/5); k > 0; k-- {
						cur[at()] = fresh[rng.Intn(len(fresh))]
					}
				case editInsert:
					i := at()
					cur = append(cur[:i], append([]string{fresh[rng.Intn(len(fresh))]}, cur[i:]...)...)
				case editDelete:
					i := at()
					cur = append(cur[:i], cur[i+1:]...)
				case editReorder:
					rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
				case editDuplicate:
					cur[at()] = cur[at()]
				case editRevert:
					cur = append([]string(nil), history[rng.Intn(len(history))]...)
				case editOption:
					// In turn: a front-end option, which no compiled entry
					// survives, and a lowering option, which only the DFA
					// tables do not.
					if optionEdits++; optionEdits%2 == 1 {
						opts.UnfoldThreshold = 12 - opts.UnfoldThreshold // the default <-> 12
					} else {
						opts.DFAStateCap = 8 - opts.DFAStateCap // the default <-> 8: most DFA patterns fall back to NFAs
					}
				}
				history = append(history, cur)

				reusedBefore := s.Stats().Reconfig
				got, err := s.Update(ctx, prog.ID, cur, opts)
				if err != nil {
					t.Fatalf("step %d (edit %d): %v", step, edit, err)
				}
				coldRes, coldM, _ := coldBuild(t, cur, opts)

				wantReused := 0
				if prevOpts.options().FrontEnd() == opts.options().FrontEnd() {
					wantReused = textsHeld(prev, cur)
				}
				after := s.Stats().Reconfig
				if reused := int(after.PatternsReused - reusedBefore.PatternsReused); reused != wantReused {
					t.Errorf("step %d (edit %d): %d patterns reused, want %d of %d", step, edit, reused, wantReused, len(cur))
				}
				if compiled := int(after.PatternsCompiled - reusedBefore.PatternsCompiled); compiled != len(cur)-wantReused {
					t.Errorf("step %d (edit %d): %d patterns compiled, want %d", step, edit, compiled, len(cur)-wantReused)
				}

				served, _ := s.Program(prog.ID)
				if served.res.Fingerprint() != coldRes.Fingerprint() {
					t.Fatalf("step %d (edit %d): compile fingerprint differs from a cold compile", step, edit)
				}
				m := served.Matcher
				if !reflect.DeepEqual(m.Engines(), coldM.Engines()) {
					t.Errorf("step %d (edit %d): engines differ", step, edit)
				}
				if !reflect.DeepEqual(m.Kernels(), coldM.Kernels()) {
					t.Errorf("step %d (edit %d): kernels differ", step, edit)
				}
				if !reflect.DeepEqual(m.PrefilterVerdicts(), coldM.PrefilterVerdicts()) {
					t.Errorf("step %d (edit %d): prefilter verdicts differ", step, edit)
				}
				img, place, err := served.hwImage()
				if err != nil {
					t.Fatal(err)
				}
				built, err := bitstream.Build(served.res, place)
				if err != nil {
					t.Fatal(err)
				}
				data := marshalImage(t, img)
				if !bytes.Equal(data, marshalImage(t, built)) {
					t.Errorf("step %d (edit %d): the image differs from its placement's built whole", step, edit)
				}
				if applied, err := reconfig.Apply(prevImg, reconfig.Diff(prevImg, img)); err != nil || !bytes.Equal(marshalImage(t, applied), data) {
					t.Errorf("step %d (edit %d): the delta does not take the replaced image to the new one (err %v)", step, edit, err)
				}
				if want := wantUpdateResult(t, prog.ID, int64(step), len(cur), prevImg, img); *got != want {
					t.Errorf("step %d (edit %d): UpdateResult\n got %+v\nwant %+v", step, edit, *got, want)
				}
				prevImg = img

				planted := workload.Dataset{Name: name, Patterns: cur, Alphabet: d.Alphabet, Seed: d.Seed}
				input := planted.Input(8<<10, int64(step))
				whole := coldM.Scan(input)
				if len(whole) == 0 {
					t.Errorf("step %d: the input matches nothing", step)
				}
				if !reflect.DeepEqual(m.Scan(input), whole) {
					t.Errorf("step %d (edit %d): whole-buffer matches differ", step, edit)
				}
				sizes := []int{1 + rng.Intn(64), 1 + rng.Intn(1024), 1 + rng.Intn(4096)}
				if !reflect.DeepEqual(feedChunked(m, input, sizes), feedChunked(coldM, input, sizes)) {
					t.Errorf("step %d (edit %d): matches differ when fed in chunks of %v", step, edit, sizes)
				}
			}
		})
	}
}

// TestSessionsPinnedThroughSharedTables: sessions opened on generation g
// keep scanning g's tables while 50 updates build and install g+1…g+50, every
// one of which takes nine tenths of its patterns — compiled entries, DFA
// tables, NBVA kernels — from its predecessor by pointer. Each streamer
// feeds its session in lockstep with a session of a matcher compiled apart
// from the service; under -race any write to a shared table is a failure.
func TestSessionsPinnedThroughSharedTables(t *testing.T) {
	rules := [2][]string{}
	rules[0], rules[1] = tenthSwapped("Snort", 0.5)
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	prog, _, err := s.Compile(ctx, rules[0], CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, oracle, _ := coldBuild(t, rules[0], CompileOptions{})
	chunk := workload.MustGenerate("Snort", 0.5, 1).Input(2<<10, 7)

	const streamers, updates = 3, 50
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < streamers; i++ {
		id, err := s.OpenSession(ctx, prog.ID)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := oracle.NewSession()
			for feeds, matches := 0, 0; ; feeds++ {
				select {
				case <-done:
					if _, _, err := s.CloseSession(ctx, id); err != nil {
						t.Error(err)
					}
					if matches == 0 {
						t.Errorf("session %s: %d feeds matched nothing", id, feeds)
					}
					return
				default:
				}
				got, err := s.Feed(ctx, id, chunk)
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if exp := want.Feed(chunk); !reflect.DeepEqual(got, exp) {
					t.Errorf("session %s, feed %d: %d matches, generation 0 gives %d", id, feeds, len(got), len(exp))
					return
				}
				matches += len(got)
			}
		}()
	}
	for i := 1; i <= updates; i++ {
		res, err := s.Update(ctx, prog.ID, rules[i%2], CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Generation != int64(i) {
			t.Fatalf("update %d installed generation %d", i, res.Generation)
		}
	}
	close(done)
	wg.Wait()
	if st := s.Stats().Reconfig; st.PatternsReused == 0 || st.PatternsReused+st.PatternsCompiled != int64(updates*len(rules[0])) {
		t.Errorf("%d reused + %d compiled over %d updates of %d patterns", st.PatternsReused, st.PatternsCompiled, updates, len(rules[0]))
	}
}

// TestFailedUpdateLeavesGenerationReusable: an update whose list holds a
// pattern that does not compile installs nothing — the served generation
// keeps serving, and the next update still reuses it.
func TestFailedUpdateLeavesGenerationReusable(t *testing.T) {
	base, swapped := tenthSwapped("Snort", 0.2)
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	prog, _, err := s.Compile(ctx, base, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(ctx, prog.ID, swapped, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	input := workload.MustGenerate("Snort", 0.2, 1).Input(4<<10, 3)
	want, err := s.Scan(ctx, prog.ID, input)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Reconfig

	broken := append(append([]string(nil), swapped...), "(")
	var cerr *compile.Error
	if _, err := s.Update(ctx, prog.ID, broken, CompileOptions{}); !errors.As(err, &cerr) || cerr.Index != len(swapped) {
		t.Fatalf("update with an unparsable pattern: err = %v, want a compile.Error at %d", err, len(swapped))
	}
	served, _ := s.Program(prog.ID)
	if served.Generation != 1 || !reflect.DeepEqual(served.Patterns, swapped) {
		t.Fatalf("failed update disturbed the served program: generation %d, %d patterns", served.Generation, len(served.Patterns))
	}
	if got, err := s.Scan(ctx, prog.ID, input); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("scan after the failed update: %d matches (err %v), want %d", len(got), err, len(want))
	}
	if st := s.Stats().Reconfig; st != before {
		t.Errorf("failed update counted: %+v, was %+v", st, before)
	}

	res, err := s.Update(ctx, prog.ID, base, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantReused := textsHeld(swapped, base)
	if reused := int(s.Stats().Reconfig.PatternsReused - before.PatternsReused); res.Generation != 2 || reused != wantReused || reused == 0 {
		t.Errorf("update after the failed one: generation %d reusing %d, want 2 reusing %d", res.Generation, reused, wantReused)
	}
	_, coldM, _ := coldBuild(t, base, CompileOptions{})
	served, _ = s.Program(prog.ID)
	if !reflect.DeepEqual(served.Matcher.Scan(input), coldM.Scan(input)) {
		t.Error("matches after the failed update differ from a cold compile's")
	}
}

// TestUpdateReuseIsObservable: how many patterns an update reused and how
// many it compiled is on its trace's compile span, in /metrics and in the
// reconfig block of /v1/stats; how many tiles it kept, and whether it
// repacked, on its image_build span and in /metrics.
func TestUpdateReuseIsObservable(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	var comp compileResponse
	body, _ := json.Marshal(compileRequest{Patterns: []string{"alpha", "be+ta", "ga{20,40}mma"}})
	doJSON(t, client, "POST", srv.URL+"/v1/programs", body, &comp)
	body, _ = json.Marshal(compileRequest{Patterns: []string{"alpha", "de+lta", "ga{20,40}mma"}})
	var upd UpdateResult
	if resp := doJSON(t, client, "PUT", srv.URL+"/v1/programs/"+comp.ProgramID, body, &upd); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: HTTP %d", resp.StatusCode)
	}

	var ring struct {
		Traces []telemetry.TraceRecord `json:"traces"`
	}
	doJSON(t, client, "GET", srv.URL+"/debug/traces", nil, &ring)
	attrs := map[string]map[string]string{}
	for _, tr := range ring.Traces {
		for _, sp := range tr.Spans {
			if sp.Attrs != nil {
				attrs[sp.Name] = sp.Attrs
			}
		}
	}
	if got := attrs["compile"]; got["reused"] != "2" || got["compiled"] != "1" {
		t.Errorf("compile span of the update carries %v, want reused=2 compiled=1", got)
	}
	// The hardware half says what it produced, in the terms the response
	// reports it: the three tiles of alpha and ga{20,40}mma were kept, be+ta's
	// was rewritten with de+lta in it, and nothing was repacked.
	if got := attrs["image_build"]; got["image_bytes"] != strconv.Itoa(upd.FullImageBytes) ||
		got["arrays"] != strconv.Itoa(upd.ArraysTouched+upd.ArraysUntouched) || got["tiles_used"] == "" || got["tiles_used"] == "0" ||
		got["tiles_reused"] != "3" || got["repacked"] != "false" {
		t.Errorf("image_build span carries %v for update %+v", got, upd)
	}
	if got := attrs["diff"]; got["records"] != strconv.Itoa(upd.DeltaRecords) ||
		got["delta_bytes"] != strconv.Itoa(upd.DeltaBytes) || got["arrays_touched"] != strconv.Itoa(upd.ArraysTouched) {
		t.Errorf("diff span carries %v for update %+v", got, upd)
	}

	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`rap_update_patterns_total{outcome="reused"} 2`,
		`rap_update_patterns_total{outcome="compiled"} 1`,
		`rap_update_repack_total 0`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	var stats struct {
		Reconfig ReconfigStats `json:"reconfig"`
	}
	doJSON(t, client, "GET", srv.URL+"/v1/stats", nil, &stats)
	if stats.Reconfig.PatternsReused != 2 || stats.Reconfig.PatternsCompiled != 1 {
		t.Errorf("/v1/stats reconfig: %d reused, %d compiled, want 2 and 1", stats.Reconfig.PatternsReused, stats.Reconfig.PatternsCompiled)
	}
}
