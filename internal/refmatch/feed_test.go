package refmatch

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/compile"
	"repro/internal/nbva"
	"repro/internal/regexast"
	"repro/internal/simdscan"
	"repro/internal/workload"
)

// TestFeedEqualEndOrder pins the order contract of one feed: ascending
// End, and for equal End the prefiltered Shift-And machine, the always-on
// one, then the NBVA and DFA patterns, each group in pattern order. The
// twelve DFA patterns, anchored ones among them, one wake word whose
// patterns interleave with the other engines', all fire on the last byte.
func TestFeedEqualEndOrder(t *testing.T) {
	patterns := []string{
		"a(x|b)*c",     // dfa
		"q(a|b)*c$",    // dfa: end-anchored
		"b{20}c",       // nbva
		"[a-f].[a-f]",  // shift-and, always-on
		"a(y|b)*c",     // dfa
		"[ab]{0,30}bc", // nbva
		"bbbc",         // shift-and, prefiltered
		"^qa(x|b)*c",   // dfa: start-anchored
	}
	wantEngines := []Engine{EngineDFA, EngineDFA, EngineNBVA, EngineShiftAnd, EngineDFA, EngineNBVA, EngineShiftAnd, EngineDFA}
	input := []byte("qa" + strings.Repeat("b", 24) + "c")
	last := len(input) - 1
	want := []Match{{6, last}, {3, last}, {2, last}, {5, last}, {0, last}, {1, last}, {4, last}, {7, last}}
	for _, c := range "zwvutsrp" {
		want = append(want, Match{len(patterns), last})
		patterns = append(patterns, fmt.Sprintf("a(%c|b)*c", c))
		wantEngines = append(wantEngines, EngineDFA)
	}
	m := compilePar(t, patterns, Options{})
	if !reflect.DeepEqual(m.Engines(), wantEngines) {
		t.Fatalf("engines = %v, want %v", m.Engines(), wantEngines)
	}
	if dfas, _, words := dfaTables(m); words != 1 || len(dfas) != 12 {
		t.Fatalf("%d DFA patterns in %d wake words: want 12 in 1", len(dfas), words)
	}
	if v := m.PrefilterVerdicts(); v[3].Prefilterable || !v[6].Prefilterable {
		t.Fatalf("prefilter verdicts: pattern 3 %v, pattern 6 %v", v[3], v[6])
	}
	// atLast drops pattern 3's matches before the final byte; they come
	// first, End ascending.
	atLast := func(ms []Match) []Match {
		for i, mt := range ms {
			if mt.End == last {
				return ms[i:]
			}
			if mt.Pattern != 3 || (i > 0 && ms[i-1].End >= mt.End) {
				t.Fatalf("match %d of %v: want pattern 3, End ascending", i, ms)
			}
		}
		return nil
	}
	if got := atLast(m.Scan(input)); !reflect.DeepEqual(got, want) {
		t.Errorf("Scan = %v, want %v", got, want)
	}
	// Streamed, the end-anchored pattern waits for Finish; the rest keep
	// their places, wherever the stream is cut.
	streamWant := append(append([]Match(nil), want[:5]...), want[6:]...)
	for cut := 0; cut <= len(input); cut++ {
		s := m.NewSession()
		got := append(s.Feed(input[:cut]), s.Feed(input[cut:])...)
		if got := atLast(got); !reflect.DeepEqual(got, streamWant) {
			t.Errorf("cut at %d: Feed = %v, want %v", cut, got, streamWant)
		}
		if got := s.Finish(); !reflect.DeepEqual(got, want[5:6]) {
			t.Errorf("cut at %d: Finish = %v, want %v", cut, got, want[5:6])
		}
	}
}

// TestDFABlockSequence holds the DFA matches of a Snort@1.0 Scan to the
// sequence, not just the set, that one Step walk per pattern gives: each
// pattern's ends in order, patterns merged stably by End. The rest of the
// Scan must stay ascending in End with the DFA group last.
func TestDFABlockSequence(t *testing.T) {
	d := workload.MustGenerate("Snort", 1.0, 1)
	m := compilePar(t, d.Patterns, Options{})
	dfas, dfaIdx, _ := dfaTables(m)
	if len(dfas) < 16 {
		t.Fatalf("%d DFA patterns, want at least 16", len(dfas))
	}
	total := 0
	for seed := int64(1); seed <= 4; seed++ {
		input := d.Input(16<<10, seed)
		var want []Match
		for j, dfa := range dfas {
			row, fired := int32(0), 0
			for i, b := range input {
				for row, fired = dfa.Step(row, b); fired > 0; fired-- {
					want = append(want, Match{Pattern: dfaIdx[j], End: i})
				}
			}
		}
		sort.SliceStable(want, func(i, k int) bool { return want[i].End < want[k].End })
		var got []Match
		all := m.Scan(input)
		for i, mt := range all {
			isDFA := m.Engines()[mt.Pattern] == EngineDFA
			if isDFA {
				got = append(got, mt)
			}
			if i > 0 && (all[i-1].End > mt.End || (all[i-1].End == mt.End && !isDFA && m.Engines()[all[i-1].Pattern] == EngineDFA)) {
				t.Fatalf("seed %d: match %d %v follows %v", seed, i, mt, all[i-1])
			}
		}
		if !matchesEqual(got, want) {
			t.Errorf("seed %d: DFA matches of Scan %v, Step walks %v", seed, got, want)
		}
		total += len(want)
	}
	if total < 8 {
		t.Fatalf("%d DFA matches over four bodies: the inputs exercise too little", total)
	}
}

// TestNBVAFeedEverySplit streams start-anchored, end-anchored and
// unanchored NBVA patterns through Feed+Finish with the input cut at
// every offset: vectors, pending entries and end-anchored fires must all
// survive the boundary and agree with the whole-buffer ScanInto.
func TestNBVAFeedEverySplit(t *testing.T) {
	patterns := []string{
		"ab{20}c",        // unanchored
		"^xab{20}c",      // start-anchored
		"ab{0,25}c$",     // end-anchored
		"^xab{18,30}bc$", // both
		"b{17}",          // BV-STE initial and final
		"[bc]{19}$",      // end-anchored, fires on many bytes
	}
	m := compilePar(t, patterns, Options{})
	for i, e := range m.Engines() {
		if e != EngineNBVA {
			t.Fatalf("pattern %d (%s) runs on %v, want nbva", i, patterns[i], e)
		}
	}
	for _, input := range []string{
		"xa" + strings.Repeat("b", 20) + "c",
		"xa" + strings.Repeat("b", 20) + "cab" + strings.Repeat("b", 22) + "c",
		"yyab" + strings.Repeat("b", 19) + "c" + strings.Repeat("b", 17) + strings.Repeat("c", 4),
		"b",
	} {
		data := []byte(input)
		ref := m.NewSession()
		want := ref.ScanInto(data, nil)
		if len(input) > 1 && len(want) == 0 {
			t.Fatalf("%q: no match, the input exercises nothing", input)
		}
		sortMatches(want)
		for cut := 0; cut <= len(data); cut++ {
			got := streamAll(m.NewSession(), data, []int{cut})
			sortMatches(got)
			if !matchesEqual(got, want) {
				t.Fatalf("%q cut at %d: streamed %v, whole buffer %v", input, cut, got, want)
			}
		}
	}
}

// TestNBVAStepFallback: a machine with more control states than the word
// kernel takes is stepped with nbva.Runner, beside kernel-scanned machines
// and in pattern order with them, and reports what the reference NFA does.
func TestNBVAStepFallback(t *testing.T) {
	prefix := strings.Repeat("abcdefgh", 9) // 72 standard STEs
	patterns := []string{"hab{20}c", prefix + "x{20}y", prefix + "x{0,30}y$", "hax{17}"}
	m := compilePar(t, patterns, Options{})
	wantKernels := []string{"word64 memchr", "step", "step", "word64 memchr"}
	for i, k := range m.Kernels() {
		if m.Engines()[i] != EngineNBVA || !strings.HasPrefix(k, wantKernels[i]+" ") {
			t.Fatalf("pattern %d: engine %v kernel %q, want nbva on %s", i, m.Engines()[i], k, wantKernels[i])
		}
	}
	if n := nbvaTables(m).machines[1].NumStates(); n <= nbva.MaxKernelStates {
		t.Fatalf("synthetic machine has %d control states, want > %d", n, nbva.MaxKernelStates)
	}
	input := []byte("zz" + prefix + strings.Repeat("x", 20) + "yhab" + strings.Repeat("b", 19) + "cha" +
		strings.Repeat("x", 18) + prefix + strings.Repeat("x", 17) + "y")
	var want []Match
	for p, pat := range patterns {
		nfa, err := automata.Glushkov(regexast.MustParse(pat), automata.DefaultMaxStates)
		if err != nil {
			t.Fatal(err)
		}
		for _, end := range nfa.MatchEnds(input) {
			want = append(want, Match{Pattern: p, End: end})
		}
	}
	sortMatches(want)
	if len(want) < 4 {
		t.Fatalf("reference matches %v: the input exercises too little", want)
	}
	if got := m.Scan(input); !matchesEqual(got, want) {
		t.Errorf("Scan = %v, reference NFA %v", got, want)
	}
	for cut := 0; cut <= len(input); cut += 7 {
		got := streamAll(m.NewSession(), input, []int{cut})
		sortMatches(got)
		if !matchesEqual(got, want) {
			t.Errorf("cut at %d: streamed %v, reference NFA %v", cut, got, want)
		}
	}
}

// TestScanAllocations pins the two allocation properties of the scan
// path: a reused session scans a mixed NBVA+DFA+Shift-And ruleset without
// allocating once dst has capacity, and opening a session costs a few
// allocations per lane, because the tables live on the Matcher and a
// lane keeps the state of all its patterns in one or two slices.
func TestScanAllocations(t *testing.T) {
	d := workload.MustGenerate("Snort", 1.0, 1)
	// Both Shift-And machines must report, so the merge has runs to merge.
	patterns := append(d.Patterns, "needle", "[a-f].[0-9]")
	m := compilePar(t, patterns, Options{})
	count := map[Engine]int{}
	for _, e := range m.Engines() {
		count[e]++
	}
	if sa, _ := m.lanes[1].(*shiftAndLane); count[EngineNBVA] == 0 || count[EngineDFA] == 0 || m.PrefilterTier() == "" || sa == nil {
		t.Fatalf("engine mix %v: want NBVA, DFA and both Shift-And machines", count)
	}
	input := d.Input(16<<10, 1)
	copy(input[1000:], "needle")
	s := m.NewSession()
	dst := s.ScanInto(input, nil)
	seen := map[Engine]bool{}
	for _, mt := range dst {
		seen[m.Engines()[mt.Pattern]] = true
	}
	if !seen[EngineNBVA] || !seen[EngineDFA] || !seen[EngineShiftAnd] {
		t.Fatalf("engines that matched: %v, want NBVA, DFA and Shift-And", seen)
	}
	if allocs := testing.AllocsPerRun(5, func() { dst = s.ScanInto(input, dst[:0]) }); allocs != 0 {
		t.Errorf("ScanInto on a reused session: %v allocs per scan, want 0", allocs)
	}
	// Snort@1.0 as generated: 207 with one heap runner per DFA pattern (57
	// of them), 150 with the rows of all the DFAs in one slice, 14 with the
	// vectors of all 71 NBVA machines in one slab too.
	m = compilePar(t, d.Patterns, Options{})
	if allocs := testing.AllocsPerRun(5, func() { m.NewSession() }); allocs > 14 {
		t.Errorf("NewSession: %v allocs for %d patterns (%d DFA), want <= 14", allocs, m.NumPatterns(), count[EngineDFA])
	}
}

// TestKernelsNamesEveryEngine: Kernels says which loop scans each pattern.
func TestKernelsNamesEveryEngine(t *testing.T) {
	patterns := []string{"cat", "ab{20}c", "a(x|y)*b", "^a(x|y)*b", strings.Repeat("[ab]", 70), "[ab]x{20}y"}
	m := compilePar(t, patterns, Options{DisablePrefilter: true})
	want := []string{"shiftand-multi", "word64 memchr (3 states, 20 BV bits)", "dfa-table", "dfa-table", "shiftand-multi",
		"word64 (3 states, 20 BV bits)"}
	if got := m.Kernels(); !reflect.DeepEqual(got, want) {
		t.Errorf("Kernels = %q, want %q", got, want)
	}
	// Five DFA patterns, wherever they sit in the list, share one wake loop.
	dfas := []string{"a(x|y)*b", "cat", "b(x|y)*c", "c(x|y)*d", "d(x|y)*e", "e(x|y)*f"}
	want = []string{"dfa-table", "shiftand-multi", "dfa-table", "dfa-table", "dfa-table", "dfa-table"}
	if got := compilePar(t, dfas, Options{DisablePrefilter: true}).Kernels(); !reflect.DeepEqual(got, want) {
		t.Errorf("Kernels = %q, want %q", got, want)
	}
	m = compilePar(t, patterns[:1], Options{})
	defer func(host bool) { simdscan.UseAVX2 = host }(simdscan.UseAVX2)
	teddies := map[bool]string{false: "teddy fp3"}
	if simdscan.UseAVX2 {
		teddies[true] = "teddy fp3 avx2"
	}
	for avx2, teddy := range teddies {
		simdscan.UseAVX2 = avx2
		if got := m.Kernels(); !reflect.DeepEqual(got, []string{"shiftand-multi behind " + teddy}) {
			t.Errorf("Kernels = %q, want [shiftand-multi behind %s]", got, teddy)
		}
		if got := m.PrefilterKernel(); got != teddy {
			t.Errorf("PrefilterKernel = %q, want %s", got, teddy)
		}
	}
	forced := compilePar(t, patterns[1:2], Options{Options: compile.Options{ModePolicy: compile.ForceNFA}})
	if got := fmt.Sprint(forced.Kernels()); got != "[dfa-table]" {
		t.Errorf("ForceNFA Kernels = %s", got)
	}
}
