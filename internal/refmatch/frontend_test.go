package refmatch

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/automata"
	"repro/internal/compile"
	"repro/internal/nbva"
	"repro/internal/regexast"
	"repro/internal/workload"
)

// lowers reports whether engine e is the software lowering of Fig 9
// mode m: NBVA -> NBVA, LNFA and NFA -> a DFA, alone or in a windowed
// union, or, past the DFA state cap, an NBVA machine without bit vectors.
func lowers(m compile.Mode, e Engine) bool {
	switch m {
	case compile.ModeNBVA:
		return e == EngineNBVA
	default:
		return e == EngineDFA || e == EngineNBVA
	}
}

// TestEnginesLowerCompileModes: the matcher has no routing of its own —
// every engine is the lowering of the mode internal/compile chose, on the
// seven datasets and on the hand-written edges of the decision graph.
func TestEnginesLowerCompileModes(t *testing.T) {
	sets := map[string][]string{
		"edges": {"^abc", "abc$", "a*", "ab{3}c", "ab{20}c", "a(bc|de){18}f", "(ab){20}c"},
	}
	for _, name := range workload.Names {
		sets[name] = workload.MustGenerate(name, 1.0, 1).Patterns
	}
	for name, patterns := range sets {
		opts := Options{}
		res, err := compile.CompileContext(context.Background(), patterns, opts.FrontEnd())
		if err != nil {
			t.Fatal(err)
		}
		m, err := FromResult(res, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, e := range m.Engines() {
			if mode := res.Regexes[i].Mode; !lowers(mode, e) {
				t.Errorf("%s: %q compiled to mode %v but runs on engine %v", name, patterns[i], mode, e)
			}
		}
	}
	// The edges' routes, spelled out.
	m, err := Compile(context.Background(), sets["edges"], Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Engine{EngineDFA, EngineDFA, EngineDFA, EngineDFA, EngineNBVA, EngineDFA, EngineDFA}
	for i, e := range m.Engines() {
		if e != want[i] {
			t.Errorf("%q runs on %v, want %v", sets["edges"][i], e, want[i])
		}
	}
}

// TestFromResultImportedNFAs: compile.FromNFAs results carry no AST, so
// lowering an NFA-mode entry must not look at one.
func TestFromResultImportedNFAs(t *testing.T) {
	nfa, err := automata.Glushkov(regexast.MustParse("a(b|c)*d"), 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromResult(compile.FromNFAs([]*automata.NFA{nfa}, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Scan([]byte("xabcbdx")); len(got) != 1 || got[0] != (Match{Pattern: 0, End: 5}) {
		t.Errorf("matches = %v", got)
	}
}

// matchSet is a match list as a set: the engines report a pattern once
// per final state (or packed sequence) that fires, the contract is about
// which (pattern, end) pairs occur.
func matchSet(ms []Match) map[Match]bool {
	set := map[Match]bool{}
	for _, m := range ms {
		set[m] = true
	}
	return set
}

// FuzzModePolicyDifferential is the guard that a route choice can never
// change the language: one pattern scanned by the all-routes matcher, by
// the ForceNFA matcher and by the reference NFA simulator must yield the
// same End set, and report each End as many times as its own compiled
// automaton has reporting STEs firing there: the reference NFA's final
// states active (automata.Runner.FinalsActive), or, for an NBVA-mode
// pattern, its machine's reporting states (nbva.Runner.FinalsFired). The
// two counts differ where σ{0,k} is one BV-STE and the unfolded reference
// has k finals: 0{0,20} reports 0 once on NBVA and 20 times on ForceNFA.
func FuzzModePolicyDifferential(f *testing.F) {
	seeds := []string{
		"abc", "a|b", "a(b|c)d", "(a+)?b", "x(a|)y", "^abc$", "(?i)Ab[C-f]", "[^a-z]x",
		"ab{10,48}c", "a{4,}b", "(ab)+c", "(ab){20}c", "a(bc|de){18}f", "ab{3}c", "a.{17}b",
	}
	for _, name := range []string{"Snort", "ClamAV", "Prosite", "SpamAssassin"} {
		seeds = append(seeds, workload.MustGenerate(name, 0.1, 11).Patterns...)
	}
	r := rand.New(rand.NewSource(12))
	for _, p := range seeds {
		f.Add(p, string(workload.Exemplar(p, r))+"ab"+string(workload.Exemplar(p, r)))
	}
	// Linearized, a(b|.)e is two sequences that both match abe; its NFA
	// has one final state.
	f.Add("a(b|.)e", "eabeabe")
	// a(b|.) has two final states, both active after ab.
	f.Add("a(b|.)", "xabab")
	// One BV-STE on NBVA, twenty unfolded finals on ForceNFA.
	f.Add("0{0,20}", "0")
	f.Fuzz(func(t *testing.T, pattern, input string) {
		if len(pattern) > 64 || len(input) > 1<<10 {
			return
		}
		re, err := regexast.Parse(pattern)
		if err != nil {
			return
		}
		nfa, err := automata.Glushkov(re, 1024)
		if err != nil {
			return
		}
		data := []byte(input)
		want := map[Match]int{}
		ref := automata.NewRunner(nfa)
		for i, b := range data {
			if ref.Step(b) && (!nfa.EndAnchored || i == len(data)-1) {
				want[Match{Pattern: 0, End: i}] = ref.FinalsActive()
			}
		}
		for _, policy := range []compile.ModePolicy{compile.PolicyDefault, compile.ForceNFA} {
			opts := Options{Options: compile.Options{ModePolicy: policy}}
			res, err := compile.CompileContext(context.Background(), []string{pattern}, opts.FrontEnd())
			if err != nil {
				t.Fatalf("%q: reference NFA builds but policy %v does not compile: %v", pattern, policy, err)
			}
			m, err := FromResult(res, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := map[Match]int{}
			for _, mt := range m.Scan(data) {
				got[mt]++
			}
			own := want
			if c := &res.Regexes[0]; c.Mode == compile.ModeNBVA {
				own = map[Match]int{}
				run := nbva.NewRunner(c.NBVA)
				for i, b := range data {
					if run.Step(b) && (!c.NBVA.EndAnchored || i == len(data)-1) {
						own[Match{Pattern: 0, End: i}] = run.FinalsFired()
					}
				}
			}
			sameEnds := maps.EqualFunc(own, want, func(int, int) bool { return true })
			if !reflect.DeepEqual(got, own) || !sameEnds {
				t.Fatalf("%q on %q: policy %v (engine %v) reports %v, its own automaton %v, reference NFA %v",
					pattern, input, policy, m.Engines()[0], got, own, want)
			}
		}
	})
}

// TestCanonicalDistinguishesMachineOptions: every option that changes
// the compiled machines changes the cache key; spelling out a default or
// changing the worker count does not.
func TestCanonicalDistinguishesMachineOptions(t *testing.T) {
	base := Options{}.Canonical()
	same := []Options{
		{Options: compile.Options{UnfoldThreshold: 16, LinearBudgetFactor: 2, Parallelism: 3}},
		{Options: compile.Options{MaxNFAStates: automata.DefaultMaxStates, ModePolicy: compile.AllowNBVA | compile.AllowLNFA}},
		{DFAStateCap: 2048, SFAStateCap: 4096},
	}
	for _, o := range same {
		if got := o.Canonical(); got != base {
			t.Errorf("%+v: canonical %q, want the default %q", o, got, base)
		}
	}
	seen := map[string]bool{base: true}
	for _, o := range []Options{
		{Options: compile.Options{UnfoldThreshold: 8}},
		{Options: compile.Options{LinearBudgetFactor: 3}},
		{Options: compile.Options{MaxNFAStates: 2048}},
		{Options: compile.Options{MaxNBVAUnfolded: 1000}},
		{Options: compile.Options{ModePolicy: compile.ForceNFA}},
		{Options: compile.Options{ModePolicy: compile.AllowNBVA}},
		{Options: compile.Options{ModePolicy: compile.AllowLNFA}},
		{DFAStateCap: -1},
		{DisablePrefilter: true},
		{SFAStateCap: -1},
	} {
		key := o.Canonical()
		if seen[key] {
			t.Errorf("%+v: canonical %q collides with another option set", o, key)
		}
		seen[key] = true
	}
}

// TestRelowerSharesTables: lowering against the matcher of an earlier
// generation gives the matcher FromResult gives, with the DFA table and NBVA
// kernel of every machine the two Results share taken from the earlier
// matcher by pointer; under another DFA cap no DFA verdict is carried over.
func TestRelowerSharesTables(t *testing.T) {
	ctx := context.Background()
	opts := Options{}
	d := workload.MustGenerate("Snort", 1, 1)
	prevRes, err := compile.CompileContext(ctx, d.Patterns, opts.FrontEnd())
	if err != nil {
		t.Fatal(err)
	}
	prev, err := FromResult(prevRes, opts)
	if err != nil {
		t.Fatal(err)
	}
	next := append([]string(nil), d.Patterns...)
	for i, p := range workload.MustGenerate("Snort", 1, 2).Patterns {
		if i%10 == 0 {
			next[i] = p
		}
	}
	res, err := compile.Recompile(ctx, prevRes, nil, next, opts.FrontEnd())
	if err != nil {
		t.Fatal(err)
	}
	tables := func(m *Matcher) (map[*automata.DFA]bool, map[*nbva.Kernel]bool) {
		dfas, kernels := map[*automata.DFA]bool{}, map[*nbva.Kernel]bool{}
		tables, _, _ := dfaTables(m)
		for _, dfa := range tables {
			dfas[dfa] = true
		}
		for _, k := range nbvaTables(m).kernels {
			kernels[k] = true
		}
		return dfas, kernels
	}
	prevDFAs, prevKernels := tables(prev)
	for _, tc := range []struct {
		opts       Options
		sharesDFAs bool
	}{{opts, true}, {Options{DFAStateCap: 8}, false}} {
		got, err := Relower(prev, nil, res, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Compile(ctx, next, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Engines(), cold.Engines()) || !reflect.DeepEqual(got.Kernels(), cold.Kernels()) ||
			!reflect.DeepEqual(got.PrefilterVerdicts(), cold.PrefilterVerdicts()) {
			t.Errorf("DFA cap %d: Relower differs from a cold compile", tc.opts.DFAStateCap)
		}
		sharedDFAs, sharedKernels := 0, 0
		gotDFAs, _, _ := dfaTables(got)
		gotKernels := nbvaTables(got).kernels
		for _, dfa := range gotDFAs {
			if prevDFAs[dfa] {
				sharedDFAs++
			}
		}
		for _, k := range gotKernels {
			if prevKernels[k] {
				sharedKernels++
			}
		}
		if (sharedDFAs > 0) != tc.sharesDFAs || sharedKernels == 0 {
			t.Errorf("DFA cap %d: %d of %d DFA tables and %d of %d kernels shared with the earlier matcher",
				tc.opts.DFAStateCap, sharedDFAs, len(gotDFAs), sharedKernels, len(gotKernels))
		}
	}
}

// alwaysOnLinear are linear patterns with no mandatory literal: they run on
// the DFA lane.
var alwaysOnLinear = []string{"[a-f].[a-f]", "[0-9]x?[0-9][0-9]"}

// TestRelowerRestoresFromOlder: a revert lowered against the matcher it
// replaces and the one that matcher displaced takes every DFA table and
// NBVA kernel by pointer — those of the reverted tenth from the older
// matcher — and the windowed group whole from the older matcher, whose
// group had the same members, and gives the matcher a cold compile gives. Under a DFA cap most NFAs miss, the machine and kernel
// of each miss are shared the same way, so neither the edit nor the
// revert runs a failed subset construction again, and the revert builds
// no NBVA machine at all.
func TestRelowerRestoresFromOlder(t *testing.T) {
	for _, opts := range []Options{{}, {DFAStateCap: 8}} {
		relowerRevert(t, opts)
	}
}

func relowerRevert(t *testing.T, opts Options) {
	ctx := context.Background()
	// Snort's linear patterns all have a mandatory literal; two without one
	// give the DFA lane linear members too.
	a := append(workload.MustGenerate("Snort", 1, 1).Patterns, alwaysOnLinear...)
	b := append([]string(nil), a...)
	for i, p := range workload.MustGenerate("Snort", 1, 2).Patterns {
		if i%10 == 0 && i < len(b) {
			b[i] = p
		}
	}
	aRes, err := compile.CompileContext(ctx, a, opts.FrontEnd())
	if err != nil {
		t.Fatal(err)
	}
	aM, err := FromResult(aRes, opts)
	if err != nil {
		t.Fatal(err)
	}
	bRes, err := compile.Recompile(ctx, aRes, nil, b, opts.FrontEnd())
	if err != nil {
		t.Fatal(err)
	}
	bM, err := Relower(aM, nil, bRes, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The cap misses of the edit that kept their slot keep their machine.
	aNB, bNB := nbvaTables(aM), nbvaTables(bM)
	misses := 0
	for j, i := range bNB.patterns {
		if bM.lowered[i].nfa == nil {
			continue // a compiled NBVA machine
		}
		misses++
		if bRes.From[i] >= 0 {
			at, ok := slices.BinarySearch(aNB.patterns, bRes.From[i])
			if !ok || aNB.machines[at] != bNB.machines[j] || aNB.kernels[at] != bNB.kernels[j] {
				t.Errorf("DFA cap %d: the cap miss %q was built again", opts.DFAStateCap, b[i])
			}
		}
	}
	if (misses > 0) != (opts.DFAStateCap == 8) {
		t.Fatalf("DFA cap %d: %d NFAs miss it", opts.DFAStateCap, misses)
	}
	revRes, err := compile.Recompile(ctx, bRes, aRes, a, opts.FrontEnd())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Relower(bM, aM, revRes, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Compile(ctx, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if revRes.Restored == 0 || !reflect.DeepEqual(got.Engines(), cold.Engines()) || !reflect.DeepEqual(got.Kernels(), cold.Kernels()) ||
		!reflect.DeepEqual(got.PrefilterVerdicts(), cold.PrefilterVerdicts()) {
		t.Fatalf("the revert (%d restored) differs from a cold compile", revRes.Restored)
	}
	aDFAs, _, _ := dfaTables(aM)
	gotDFAs, _, _ := dfaTables(got)
	aKernels, gotKernels := nbvaTables(aM).kernels, nbvaTables(got).kernels
	if len(gotDFAs) == 0 || len(gotDFAs) != len(aDFAs) || len(gotKernels) == 0 || len(gotKernels) != len(aKernels) {
		t.Fatalf("%d DFA tables and %d NBVA kernels, the restored matcher has %d and %d", len(gotDFAs), len(gotKernels), len(aDFAs), len(aKernels))
	}
	for i := range gotDFAs {
		if gotDFAs[i] != aDFAs[i] {
			t.Errorf("DFA table %d is not the restored matcher's own", i)
		}
	}
	for i := range gotKernels {
		if gotKernels[i] != aKernels[i] {
			t.Errorf("NBVA kernel %d is not the restored matcher's own", i)
		}
	}
	if gotNB := nbvaTables(got); !same(gotNB.machines, aNB.machines) || !same(gotNB.kernels, aNB.kernels) {
		t.Errorf("DFA cap %d: the revert built NBVA machines", opts.DFAStateCap)
	}
	aG := aM.kinds.win.g
	if aG == nil {
		t.Fatalf("DFA cap %d: the list lowers to no windowed group", opts.DFAStateCap)
	}
	if reused := got.LanesReused(); got.kinds.win.g != aG || reused != 1 {
		t.Errorf("DFA cap %d: the revert took %d lanes whole; the windowed group shared %v", opts.DFAStateCap, reused, got.kinds.win.g == aG)
	}
}

// TestRelowerKeepsWindowedGroup: a novel edit that touches only NBVA
// patterns leaves the windowed group's members as they were, so the
// served matcher's group — its prefilter and its union DFAs, built once —
// is taken whole, the linear DFAs are shared, and the matcher is still the
// one a cold compile gives.
func TestRelowerKeepsWindowedGroup(t *testing.T) {
	ctx := context.Background()
	opts := Options{}
	d := workload.MustGenerate("Snort", 1, 1)
	a := append(d.Patterns, alwaysOnLinear...)
	aRes, err := compile.CompileContext(ctx, a, opts.FrontEnd())
	if err != nil {
		t.Fatal(err)
	}
	aM, err := FromResult(aRes, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := append([]string(nil), a...)
	var edited []int
	for i := range b {
		if aRes.Regexes[i].Mode == compile.ModeNBVA && len(edited) < 4 {
			b[i] = fmt.Sprintf("nbva%dx{%d}y", i, 100+i)
			edited = append(edited, i)
		}
	}
	bRes, err := compile.Recompile(ctx, aRes, nil, b, opts.FrontEnd())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range edited {
		if bRes.Regexes[i].Mode != compile.ModeNBVA {
			t.Fatalf("the edit %q is not an NBVA pattern", b[i])
		}
	}
	if len(edited) == 0 || bRes.Reused != len(b)-len(edited) {
		t.Fatalf("%d edits, %d of %d patterns reused", len(edited), bRes.Reused, len(b))
	}
	got, err := Relower(aM, nil, bRes, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Compile(ctx, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Engines(), cold.Engines()) || !reflect.DeepEqual(got.Kernels(), cold.Kernels()) ||
		!reflect.DeepEqual(got.PrefilterVerdicts(), cold.PrefilterVerdicts()) {
		t.Fatal("the edit lowered against the served matcher differs from a cold compile")
	}
	aG := aM.kinds.win.g
	if aG == nil {
		t.Fatal("the list lowers to no windowed group")
	}
	aM.Scan([]byte("builds the unions"))
	if got.kinds.win.g != aG || got.LanesReused() != 1 || len(got.kinds.win.g.unions) == 0 {
		t.Errorf("the NBVA edit took %d lanes whole; the windowed group shared %v", got.LanesReused(), got.kinds.win.g == aG)
	}
	aDFAs, _, _ := dfaTables(aM)
	gotDFAs, _, _ := dfaTables(got)
	if !same(aDFAs, gotDFAs) {
		t.Error("the NBVA edit built the DFA lane's tables again")
	}
	planted := workload.Dataset{Name: "Snort", Patterns: b, Alphabet: d.Alphabet, Seed: d.Seed}
	input := planted.Input(16<<10, 3)
	if !reflect.DeepEqual(got.Scan(input), cold.Scan(input)) {
		t.Error("the edit lowered against the served matcher matches otherwise than a cold compile")
	}
}
