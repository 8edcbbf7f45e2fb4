package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
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
	"time"

	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/reconfig"
	"repro/internal/refmatch"
	"repro/internal/regexast"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// tenthFrom returns the dataset's patterns with every tenth one taken from
// the same dataset under seed; seed 1 gives the dataset itself.
func tenthFrom(name string, scale float64, seed int64) []string {
	out := append([]string(nil), workload.MustGenerate(name, scale, 1).Patterns...)
	other := workload.MustGenerate(name, scale, seed)
	for i := 0; i < len(out) && i < len(other.Patterns); i += 10 {
		out[i] = other.Patterns[i]
	}
	return out
}

// tenthSwapped returns the dataset's patterns and a copy with every tenth
// one taken from the same dataset under another seed: the two generations
// the ledger's hot_swap workload alternates.
func tenthSwapped(name string, scale float64) (base, swapped []string) {
	return tenthFrom(name, scale, 1), tenthFrom(name, scale, 2)
}

// oneSwapped returns the dataset's patterns and a copy with one pattern,
// the tenth, taken from the same dataset under another seed.
func oneSwapped(name string, scale float64) [][]string {
	base := workload.MustGenerate(name, scale, 1).Patterns
	edited := append([]string(nil), base...)
	edited[10] = workload.MustGenerate(name, scale, 2).Patterns[10]
	return [][]string{base, edited}
}

// BenchmarkUpdate is the ledger's hot_swap update in isolation: Snort@1.0
// with every tenth pattern changed. In revert, the ledger's alternation of
// two generations, every swapped-in text is one the displaced generation
// holds; in novel the tenth cycles through seeds 1, 2 and 3, so every
// swapped-in text is new to both kept generations and is compiled.
//
// The ceilings bound what one update may allocate. Before reverts were
// restored every update paid novel's (49 531 allocs/op before updates
// reused the served generation; 7 795 and 1.93 MB while the placement was
// cloned per regex and the images were marshalled to be checksummed; 4 306
// while shiftand.New allocated a label vector per byte value, 4 051 and
// 0.74 MB with the 256 cut from one slab, while every update re-placed the
// whole ruleset; 3 359 and 0.59 MB once it kept the served placement and
// prefilter analysis); a revert allocated 463 and 0.38 MB while every image
// copied all its tiles and switches and every update packed its Shift-And
// lanes anew, 292 and 0.21 MB while Rebuild walked every placed state and
// Diff compared each written tile twice, and 262 and 0.21 MB while
// Recompile, Relower and Remap rebuilt tables over the whole ruleset (novel
// 3 088 and 0.44 MB). It now allocates 133 and 142 KB, novel 2 655 and
// 343 KB (2 451 and 352 KB while linear patterns ran on the Shift-And
// lane), and one, a single pattern reverted, 64 and 54 KB (221 and
// 126 KB before); each ceiling was set about 10 % above its figure,
// novel's above 3 060 and 390 KB, which it read then. The windowed group's
// union DFAs are not built here but on the group's first scan, so novel,
// which changes the group every time, pays only its literal union;
// TestWindowedBuildCost (refmatch) bounds the deferred build.
func BenchmarkUpdate(b *testing.B) {
	for _, bm := range []struct {
		name          string
		seeds         []int64
		allocs, bytes uint64
	}{
		{"one", nil, 75, 60 << 10},
		{"revert", []int64{1, 2}, 145, 155 << 10},
		{"novel", []int64{1, 2, 3}, 3350, 430 << 10},
	} {
		b.Run(bm.name, func(b *testing.B) {
			var rules [][]string
			for _, seed := range bm.seeds {
				rules = append(rules, tenthFrom("Snort", 1, seed))
			}
			if bm.seeds == nil {
				rules = oneSwapped("Snort", 1)
			}
			s := New(Config{})
			defer s.Close()
			ctx := context.Background()
			prog, _, err := s.Compile(ctx, rules[0], CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			next, deltaBytes := 0, 0
			benchUpdates(b, s, bm.allocs, bm.bytes, func() {
				next = (next + 1) % len(rules)
				res, err := s.Update(ctx, prog.ID, rules[next], CompileOptions{})
				if err != nil {
					b.Fatal(err)
				}
				deltaBytes = res.DeltaBytes
			})
			b.ReportMetric(float64(deltaBytes), "delta_B")
		})
	}
}

// BenchmarkUpdateHTTP is BenchmarkUpdate's revert as a client sends it: a
// PUT /v1/programs/{id} of the body rapclient writes, through
// Service.Handler — read, decoded, compiled, built, diffed and answered —
// and the first of these benchmarks that covers the request's decode. The
// ceiling bounds what one request allocates, the recorder's included: it
// measured 201 allocs and 161 KB, the revert's 133 and 142 KB plus 68 and
// 19 KB for the request, its trace and its decode (332 and 0.23 MB while
// the front half rebuilt whole-ruleset tables; 630 allocs with
// encoding/json's decode). The ceiling is about 10 % above.
func BenchmarkUpdateHTTP(b *testing.B) {
	var bodies [][]byte
	for _, seed := range []int64{1, 2} {
		body, err := json.Marshal(Ruleset{Patterns: tenthFrom("Snort", 1, seed)})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	s := New(Config{})
	defer s.Close()
	var rs Ruleset
	if err := json.Unmarshal(bodies[0], &rs); err != nil {
		b.Fatal(err)
	}
	prog, _, err := s.Compile(context.Background(), rs.Patterns, rs.Options)
	if err != nil {
		b.Fatal(err)
	}
	h, next := s.Handler(), 0
	benchUpdates(b, s, 220, 176<<10, func() {
		next = (next + 1) % len(bodies)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/programs/"+prog.ID, bytes.NewReader(bodies[next])))
		if rec.Code != http.StatusOK {
			b.Fatalf("PUT: %d %s", rec.Code, rec.Body)
		}
	})
}

// benchUpdates runs update b.N times after two warm-up calls (the first
// swap also builds the displaced program's image) and fails b if an update
// repacked the placement or, over ten or more, one allocated more than
// allocs times or bytes bytes on average.
func benchUpdates(b *testing.B, s *Service, allocs, bytes uint64, update func()) {
	update()
	update()
	repacks := s.updateRepacks.Value()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if n := s.updateRepacks.Value() - repacks; n != 0 {
		b.Errorf("%d of %d updates repacked the placement", n, b.N)
	}
	// The framework's one-iteration probe is too short to average over.
	if b.N < 10 {
		return
	}
	if perOp := (after.Mallocs - before.Mallocs) / uint64(b.N); perOp > allocs {
		b.Errorf("%d allocs per update, ceiling %d", perOp, allocs)
	}
	if perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N); perOp > bytes {
		b.Errorf("%d bytes allocated per update, ceiling %d", perOp, bytes)
	}
}

// TestUpdateCostFollowsEdit: what an update allocates follows its edit,
// not the ruleset. A one-pattern revert of Snort@1.0 allocates at most half
// of what the revert of a tenth of it does; the ratio was 0.65 while
// compile.Recompile, refmatch.Relower and mapper.Remap rebuilt tables over
// the whole ruleset on every update. Measured as TotalAlloc per update over
// a run of reverts, the test not parallel so that nothing else allocates.
func TestUpdateCostFollowsEdit(t *testing.T) {
	perUpdate := func(rules [][]string) uint64 {
		s := New(Config{})
		defer s.Close()
		ctx := context.Background()
		prog, _, err := s.Compile(ctx, rules[0], CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		const n = 20
		var before, after runtime.MemStats
		for i := -2; i < n; i++ { // two to warm up: the first builds the served image
			if i == 0 {
				runtime.ReadMemStats(&before)
			}
			if _, err := s.Update(ctx, prog.ID, rules[(i+3)%2], CompileOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	base, tenth := tenthSwapped("Snort", 1)
	one, all := perUpdate(oneSwapped("Snort", 1)), perUpdate([][]string{base, tenth})
	t.Logf("one-pattern revert %d B, tenth %d B per update", one, all)
	if 2*one > all {
		t.Errorf("a one-pattern revert allocates %d B per update, more than half of a tenth's %d B", one, all)
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

// reuseSplit counts the patterns of next an update takes from the served
// generation (reused: its list holds the text) and, of the rest, from the
// generation the served one displaced (restored); the others are compiled.
// A nil list stands for a generation compiled under other front-end
// options, which gives nothing.
func reuseSplit(served, displaced, next []string) (reused, restored int) {
	held := func(list []string) map[string]bool {
		out := make(map[string]bool, len(list))
		for _, p := range list {
			out[p] = true
		}
		return out
	}
	s, d := held(served), held(displaced)
	for _, p := range next {
		if s[p] {
			reused++
		} else if d[p] {
			restored++
		}
	}
	return reused, restored
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
// generation they replace, or the one it displaced, already compiled serves,
// step for step, what a cold compile of the same list serves. Seeded random
// edit scripts over three datasets, then scripted reverts: A→B→A,
// A→B→C→B, and A@o1→B@o2→A@o1, where a front-end option flip leaves only
// the displaced generation to restore from. After every update the served
// program and the cold one must agree on the compile Result, the engine and
// kernel of every pattern, the prefilter verdicts and the matches of an
// input with the list's own exemplars planted, scanned whole and in random
// chunks. The image is built on the served one's placement, so it is not a
// cold image: it must be the image of its own placement built whole, the
// delta must take the image it replaced to it, and the UpdateResult must be
// that delta's. The reuse counts are checked too: every text the replaced
// generation held is reused, every other one the generation before it held
// is restored — its AST and machine the displaced generation's own — and
// none of either comes from a generation under other front-end options.
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
			// The lists and options of the served generation and the one it
			// displaced; the initial deploy displaced nothing.
			type gen struct {
				patterns []string
				opts     CompileOptions
			}
			served, displaced := gen{cur, opts}, gen{}
			step := 0
			update := func(what string, next []string, nextOpts CompileOptions) {
				t.Helper()
				step++
				frontEnd := nextOpts.options().FrontEnd()
				heldBy := func(g gen) []string {
					if g.patterns == nil || g.opts.options().FrontEnd() != frontEnd {
						return nil
					}
					return g.patterns
				}
				wantReused, wantRestored := reuseSplit(heldBy(served), heldBy(displaced), next)
				before, _ := s.Program(prog.ID)
				counts := s.Stats().Reconfig
				got, err := s.Update(ctx, prog.ID, next, nextOpts)
				if err != nil {
					t.Fatalf("step %d (%s): %v", step, what, err)
				}
				coldRes, coldM, _ := coldBuild(t, next, nextOpts)
				displaced, served = served, gen{next, nextOpts}

				after := s.Stats().Reconfig
				reused, restored := int(after.PatternsReused-counts.PatternsReused), int(after.PatternsRestored-counts.PatternsRestored)
				compiled := int(after.PatternsCompiled - counts.PatternsCompiled)
				if reused != wantReused || restored != wantRestored || compiled != len(next)-wantReused-wantRestored {
					t.Errorf("step %d (%s): %d reused, %d restored, %d compiled; want %d, %d, %d of %d",
						step, what, reused, restored, compiled, wantReused, wantRestored, len(next)-wantReused-wantRestored, len(next))
				}

				now, _ := s.Program(prog.ID)
				if now.displaced.res != before.res || now.displaced.m != before.Matcher {
					t.Errorf("step %d (%s): the new generation does not keep the one it displaced", step, what)
				}
				if now.res.Fingerprint() != coldRes.Fingerprint() {
					t.Fatalf("step %d (%s): compile fingerprint differs from a cold compile", step, what)
				}
				// A restored pattern shares the displaced generation's entry.
				byAST := make(map[*regexast.Regex]*compile.Compiled)
				if before.displaced.res != nil {
					for i := range before.displaced.res.Regexes {
						byAST[before.displaced.res.Regexes[i].AST] = &before.displaced.res.Regexes[i]
					}
				}
				shared := 0
				for i := range now.res.Regexes {
					c, old := &now.res.Regexes[i], byAST[now.res.Regexes[i].AST]
					if old == nil || now.res.From != nil && now.res.From[i] >= 0 {
						continue
					}
					if c.Source != old.Source || c.NFA != old.NFA || c.NBVA != old.NBVA {
						t.Fatalf("step %d (%s): restored slot %d (%q) does not share the displaced generation's machine", step, what, i, next[i])
					}
					shared++
				}
				if shared != wantRestored {
					t.Errorf("step %d (%s): %d slots share the displaced generation's machine, want %d", step, what, shared, wantRestored)
				}
				m := now.Matcher
				if !reflect.DeepEqual(m.Engines(), coldM.Engines()) {
					t.Errorf("step %d (%s): engines differ", step, what)
				}
				if !reflect.DeepEqual(m.Kernels(), coldM.Kernels()) {
					t.Errorf("step %d (%s): kernels differ", step, what)
				}
				if !reflect.DeepEqual(m.PrefilterVerdicts(), coldM.PrefilterVerdicts()) {
					t.Errorf("step %d (%s): prefilter verdicts differ", step, what)
				}
				img, place, err := now.hwImage()
				if err != nil {
					t.Fatal(err)
				}
				built, err := bitstream.Build(now.res, place)
				if err != nil {
					t.Fatal(err)
				}
				data := marshalImage(t, img)
				if !bytes.Equal(data, marshalImage(t, built)) {
					t.Errorf("step %d (%s): the image differs from its placement's built whole", step, what)
				}
				if applied, err := reconfig.Apply(prevImg, reconfig.Diff(prevImg, img)); err != nil || !bytes.Equal(marshalImage(t, applied), data) {
					t.Errorf("step %d (%s): the delta does not take the replaced image to the new one (err %v)", step, what, err)
				}
				if want := wantUpdateResult(t, prog.ID, int64(step), len(next), prevImg, img); *got != want {
					t.Errorf("step %d (%s): UpdateResult\n got %+v\nwant %+v", step, what, *got, want)
				}
				prevImg = img

				planted := workload.Dataset{Name: name, Patterns: next, Alphabet: d.Alphabet, Seed: d.Seed}
				input := planted.Input(8<<10, int64(step))
				whole := coldM.Scan(input)
				if len(whole) == 0 {
					t.Errorf("step %d: the input matches nothing", step)
				}
				if !reflect.DeepEqual(m.Scan(input), whole) {
					t.Errorf("step %d (%s): whole-buffer matches differ", step, what)
				}
				sizes := []int{1 + rng.Intn(64), 1 + rng.Intn(1024), 1 + rng.Intn(4096)}
				if !reflect.DeepEqual(feedChunked(m, input, sizes), feedChunked(coldM, input, sizes)) {
					t.Errorf("step %d (%s): matches differ when fed in chunks of %v", step, what, sizes)
				}
			}

			history := [][]string{cur}
			optionEdits := 0
			for n := 1; n <= 20; n++ {
				cur = append([]string(nil), cur...)
				at := func() int { return rng.Intn(len(cur)) }
				edit := (n - 1) % numEdits
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
				update("edit "+strconv.Itoa(edit), cur, opts)
			}

			// Scripted reverts from the list the script ended on, A: every
			// tenth pattern replaced by a fresh text gives B, by another C.
			a, aOpts := cur, opts
			tenth := func(off int) []string {
				out := append([]string(nil), a...)
				for i := 0; i < len(out); i += 10 {
					out[i] = fresh[(i+off)%len(fresh)]
				}
				return out
			}
			b, c := tenth(0), tenth(len(fresh)/2)
			other := aOpts
			other.UnfoldThreshold = 12 - other.UnfoldThreshold
			for _, u := range []struct {
				what     string
				patterns []string
				opts     CompileOptions
			}{
				{"A->B", b, aOpts}, {"A->B->A", a, aOpts},
				{"A->B", b, aOpts}, {"A->B->C", c, aOpts}, {"A->B->C->B", b, aOpts},
				{"A@o1", a, aOpts}, {"A@o1->B@o2", b, other}, {"A@o1->B@o2->A@o1", a, aOpts},
			} {
				update(u.what, u.patterns, u.opts)
			}
		})
	}
}

// TestServedImageNeverWritten: successive generations share, by pointer,
// the tiles and global switches an update did not rewrite, so no update may
// write one. Over A→B→A→C→B on Snort@1.0, where C is A without its NFA
// patterns, so that A→C and C→B repack the placement, every image ever served still
// marshals to bytes whose CRC-32 is the one cached when it was served, and
// Apply(Diff(old, new), old) leaves old's bytes as they were.
func TestServedImageNeverWritten(t *testing.T) {
	a, b := tenthSwapped("Snort", 1)
	aRes, _, _ := coldBuild(t, a, CompileOptions{})
	var c []string // A without its NFA patterns: their array empties
	for i, p := range a {
		if aRes.Regexes[i].Mode != compile.ModeNFA {
			c = append(c, p)
		}
	}
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	prog, _, err := s.Compile(ctx, a, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type servedImage struct {
		img  *bitstream.Image
		crc  uint32
		data []byte
	}
	var images []servedImage
	serve := func() *bitstream.Image {
		p, _ := s.Program(prog.ID)
		img, _, err := p.hwImage()
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, servedImage{img, img.CRC(), marshalImage(t, img)})
		return img
	}
	oldImg := serve()
	for step, next := range [][]string{b, a, c, b} {
		repacks := s.updateRepacks.Value()
		if _, err := s.Update(ctx, prog.ID, next, CompileOptions{}); err != nil {
			t.Fatalf("step %d: %v", step+1, err)
		}
		// A→C empties an array and C→B needs it back: both pack cold.
		repacked := s.updateRepacks.Value() > repacks
		if repacked != (step >= 2) {
			t.Fatalf("step %d repacked: %v; the script repacks on A→C and C→B alone", step+1, repacked)
		}
		newImg := serve()
		shared := 0
		for ai := range newImg.Arrays {
			if ai >= len(oldImg.Arrays) {
				break
			}
			for ti, tile := range newImg.Arrays[ai].Tiles {
				if ti < len(oldImg.Arrays[ai].Tiles) && tile == oldImg.Arrays[ai].Tiles[ti] {
					shared++
				}
			}
		}
		if shared == 0 && !repacked {
			t.Errorf("step %d shares no tile with the image it replaced", step+1)
		}
		if _, err := reconfig.Apply(oldImg, reconfig.Diff(oldImg, newImg)); err != nil {
			t.Fatalf("step %d: %v", step+1, err)
		}
		if !bytes.Equal(marshalImage(t, oldImg), images[len(images)-2].data) {
			t.Errorf("step %d: Apply wrote the image it was applied to", step+1)
		}
		for i, im := range images {
			if data := marshalImage(t, im.img); crc32.ChecksumIEEE(data[:len(data)-4]) != im.crc {
				t.Errorf("after step %d: the image served after step %d was written", step+1, i)
			}
		}
		oldImg = newImg
	}
}

// TestUpdatePastGlobalSwitchFails: a ruleset whose NFA array routes an
// edge between tiles the 256-port global switch does not reach — Snort@1.0
// and as many patterns again — fails its update with an error, and the
// served generation stays.
func TestUpdatePastGlobalSwitchFails(t *testing.T) {
	a, _ := tenthSwapped("Snort", 1)
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	prog, _, err := s.Compile(ctx, a, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doubled := append(append([]string(nil), a...), workload.MustGenerate("Snort", 1, 3).Patterns...)
	if _, err := s.Update(ctx, prog.ID, doubled, CompileOptions{}); err == nil || !strings.Contains(err.Error(), "global switch") {
		t.Fatalf("update past the global switch: %v", err)
	}
	if p, _ := s.Program(prog.ID); p.Generation != 0 {
		t.Errorf("the failed update swapped the program to generation %d", p.Generation)
	}
}

// TestUpdateFromUnbuildableImage: a program whose image cannot be built
// (TestUpdatePastGlobalSwitchFails's doubled Snort@1.0, which compiles and
// scans) still updates. The new image is mapped and built cold and priced
// as a full load: the delta replaces every array of it. The next update
// builds on that image as usual.
func TestUpdateFromUnbuildableImage(t *testing.T) {
	a, b := tenthSwapped("Snort", 1)
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	doubled := append(append([]string(nil), a...), workload.MustGenerate("Snort", 1, 3).Patterns...)
	prog, _, err := s.Compile(ctx, doubled, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prog.hwImage(); err == nil {
		t.Fatal("the doubled ruleset's image builds")
	}
	got, err := s.Update(ctx, prog.ID, a, CompileOptions{})
	if err != nil {
		t.Fatalf("update from an unbuildable image: %v", err)
	}
	if got.Generation != 1 || got.ArraysUntouched != 0 || got.DeltaRecords != got.ArraysTouched ||
		got.ReloadCycles != got.FullReloadCycles || got.DeltaBytes < got.FullImageBytes {
		t.Errorf("the delta does not load the whole image: %+v", got)
	}
	next, err := s.Update(ctx, prog.ID, b, CompileOptions{})
	if err != nil || next.Generation != 2 || next.DeltaBytes >= next.FullImageBytes {
		t.Errorf("the update after it: %+v, %v", next, err)
	}
}

// TestSessionsPinnedThroughSharedTables: sessions opened on generation g
// keep scanning g's tables while 50 updates build and install g+1…g+50, every
// one of which takes nine tenths of its patterns — compiled entries, DFA
// tables, NBVA kernels — from its predecessor by pointer, and from the second
// on the last tenth from the generation before that. Each streamer
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
	if st := s.Stats().Reconfig; st.PatternsReused == 0 || st.PatternsRestored == 0 ||
		st.PatternsReused+st.PatternsRestored+st.PatternsCompiled != int64(updates*len(rules[0])) {
		t.Errorf("%d reused + %d restored + %d compiled over %d updates of %d patterns",
			st.PatternsReused, st.PatternsRestored, st.PatternsCompiled, updates, len(rules[0]))
	}
}

// TestFailedUpdateLeavesGenerationReusable: an update whose list holds a
// pattern that does not compile installs nothing — the served generation
// keeps serving, and the next update still reuses it and restores from the
// generation it displaced.
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
	var servedPatterns []string
	for i := range served.res.Regexes {
		servedPatterns = append(servedPatterns, served.res.Regexes[i].Source)
	}
	if served.Generation != 1 || !reflect.DeepEqual(servedPatterns, swapped) {
		t.Fatalf("failed update disturbed the served program: generation %d, %d patterns", served.Generation, len(servedPatterns))
	}
	if got, err := s.Scan(ctx, prog.ID, input); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("scan after the failed update: %d matches (err %v), want %d", len(got), err, len(want))
	}
	if st := s.Stats().Reconfig; st != before {
		t.Errorf("failed update counted: %+v, was %+v", st, before)
	}

	// Reverting to base takes what swapped shares with it from the served
	// generation and the rest from the one it displaced: nothing compiles.
	res, err := s.Update(ctx, prog.ID, base, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantReused, wantRestored := reuseSplit(swapped, base, base)
	after := s.Stats().Reconfig
	reused, restored := int(after.PatternsReused-before.PatternsReused), int(after.PatternsRestored-before.PatternsRestored)
	if res.Generation != 2 || reused != wantReused || restored != wantRestored || restored == 0 || after.PatternsCompiled != before.PatternsCompiled {
		t.Errorf("update after the failed one: generation %d reusing %d, restoring %d, compiling %d; want 2 reusing %d, restoring %d, compiling 0",
			res.Generation, reused, restored, after.PatternsCompiled-before.PatternsCompiled, wantReused, wantRestored)
	}
	_, coldM, _ := coldBuild(t, base, CompileOptions{})
	served, _ = s.Program(prog.ID)
	if !reflect.DeepEqual(served.Matcher.Scan(input), coldM.Scan(input)) {
		t.Error("matches after the failed update differ from a cold compile's")
	}
}

// TestDisplacedGenerationIsNotAChain: a generation keeps the one it
// displaced and nothing older, so once generation g serves, g-1's matcher
// is alive behind it and g-2's is collected.
func TestDisplacedGenerationIsNotAChain(t *testing.T) {
	base, swapped := tenthSwapped("Snort", 0.1)
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	id := func() string { // the test keeps no *Program
		prog, _, err := s.Compile(ctx, base, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return prog.ID
	}()
	collected := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	watch := func(g int) {
		p, _ := s.Program(id)
		runtime.SetFinalizer(p.Matcher, func(*refmatch.Matcher) { close(collected[g]) })
	}
	watch(0)
	for g, rules := range [][]string{swapped, base} {
		if _, err := s.Update(ctx, id, rules, CompileOptions{}); err != nil {
			t.Fatal(err)
		}
		if g == 0 {
			watch(1)
		}
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected[1]:
			t.Fatal("generation 1's matcher was collected while generation 2 keeps it")
		case <-collected[0]:
			if served, _ := s.Program(id); served.displaced.m == nil {
				t.Fatal("generation 2 keeps no displaced matcher")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("generation 0's matcher is still reachable with generation 2 served")
}

// TestUpdateReuseIsObservable: how many patterns an update reused, how many
// it restored from the generation the served one displaced and how many it
// compiled is on its trace's compile span, in /metrics and in the reconfig
// block of /v1/stats; how many tiles it kept, and whether it repacked, on
// its image_build span and in /metrics.
func TestUpdateReuseIsObservable(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	var comp compileResponse
	body, _ := json.Marshal(Ruleset{Patterns: []string{"alpha", "be+ta", "ga{20,40}mma"}})
	doJSON(t, client, "POST", srv.URL+"/v1/programs", body, &comp)
	body, _ = json.Marshal(Ruleset{Patterns: []string{"alpha", "de+lta", "ga{20,40}mma"}})
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
	// alpha's windowed group is unchanged, so it is taken whole.
	if got := attrs["compile"]; got["reused"] != "2" || got["restored"] != "0" || got["compiled"] != "1" || got["lanes_reused"] != "1" {
		t.Errorf("compile span of the update carries %v, want reused=2 restored=0 compiled=1 lanes_reused=1", got)
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

	// Reverting takes be+ta back from the generation the served one
	// displaced: two reused, one restored, none compiled.
	body, _ = json.Marshal(Ruleset{Patterns: []string{"alpha", "be+ta", "ga{20,40}mma"}})
	if resp := doJSON(t, client, "PUT", srv.URL+"/v1/programs/"+comp.ProgramID, body, &upd); resp.StatusCode != http.StatusOK {
		t.Fatalf("revert: HTTP %d", resp.StatusCode)
	}
	doJSON(t, client, "GET", srv.URL+"/debug/traces", nil, &ring)
	reverted := false
	for _, tr := range ring.Traces {
		for _, sp := range tr.Spans {
			a := sp.Attrs
			reverted = reverted || sp.Name == "compile" && a["reused"] == "2" && a["restored"] == "1" && a["compiled"] == "0"
		}
	}
	if !reverted {
		t.Error("no compile span says the revert reused 2, restored 1 and compiled 0")
	}

	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`rap_update_patterns_total{outcome="reused"} 4`,
		`rap_update_patterns_total{outcome="restored"} 1`,
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
	if st := stats.Reconfig; st.PatternsReused != 4 || st.PatternsRestored != 1 || st.PatternsCompiled != 1 {
		t.Errorf("/v1/stats reconfig: %d reused, %d restored, %d compiled, want 4, 1 and 1", st.PatternsReused, st.PatternsRestored, st.PatternsCompiled)
	}
}
