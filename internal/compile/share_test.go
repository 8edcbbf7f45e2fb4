package compile_test

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/compile"
	"repro/internal/refmatch"
	"repro/internal/regexast"
	"repro/internal/workload"
)

// countReports counts match reports the way the hardware does: one per
// active final state per cycle (a union automaton carries several
// regexes' finals, each reporting independently).
func countReports(nfa *automata.NFA, input []byte) int {
	r := automata.NewRunner(nfa)
	total := 0
	for _, b := range input {
		r.Step(b)
		total += r.FinalsActive()
	}
	return total
}

// shareAllNFA compiles everything as NFA and applies sharing.
func shareAllNFA(t *testing.T, patterns []string) (*compile.Result, *compile.Result) {
	t.Helper()
	res := compile.Compile(patterns, compile.Options{ModePolicy: compile.ForceNFA})
	if len(res.Errors) != 0 {
		t.Fatal(res.Errors[0])
	}
	shared, err := compile.ShareNFAPrefixes(res, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, shared
}

func totalSTEs(res *compile.Result) int {
	n := 0
	for i := range res.Regexes {
		n += res.Regexes[i].STEs
	}
	return n
}

func TestShareReducesSTEs(t *testing.T) {
	patterns := []string{
		"GET /index", "GET /images", "GET /info", "GET /api/v1",
		"POST /api/v1", "POST /api/v2",
	}
	plain, shared := shareAllNFA(t, patterns)
	if totalSTEs(shared) >= totalSTEs(plain) {
		t.Errorf("sharing did not reduce STEs: %d vs %d", totalSTEs(shared), totalSTEs(plain))
	}
	// "GET /i" is shared by three patterns: saving at least 2*6.
	if totalSTEs(plain)-totalSTEs(shared) < 10 {
		t.Errorf("saving only %d STEs", totalSTEs(plain)-totalSTEs(shared))
	}
}

func TestShareBehaviourPreserved(t *testing.T) {
	patterns := []string{
		"abcde", "abcxy", "abq(r|s)*t", "zz.*q", "abcde", // duplicate on purpose
	}
	_, shared := shareAllNFA(t, patterns)
	ref, err := refmatch.Compile(context.Background(), patterns, refmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		input := make([]byte, r.Intn(40))
		for i := range input {
			input[i] = "abcdeqrstxyz"[r.Intn(12)]
		}
		want := ref.Count(input)
		got := 0
		for i := range shared.Regexes {
			c := &shared.Regexes[i]
			if c.NFA == nil {
				t.Fatal("shared result has non-NFA entry")
			}
			got += countReports(c.NFA, input)
		}
		if got != want {
			t.Fatalf("input %q: shared %d matches, reference %d", input, got, want)
		}
	}
}

// TestShareDuplicatePatternsReportTwice: every regex reports on its own,
// a duplicate too. xab? and xac* both match at the xa they share: a
// class after which a regex can match is never shared.
func TestShareDuplicatePatternsReportTwice(t *testing.T) {
	for _, tc := range []struct {
		patterns []string
		input    string
		want     int
	}{
		{[]string{"abc", "abc"}, "xxabcxx", 2},
		{[]string{"xab?", "xac*", "xab?"}, "xa", 3},
	} {
		_, shared := shareAllNFA(t, tc.patterns)
		got := 0
		for i := range shared.Regexes {
			got += countReports(shared.Regexes[i].NFA, []byte(tc.input))
		}
		if got != tc.want {
			t.Errorf("%q on %q reported %d matches, want %d", tc.patterns, tc.input, got, tc.want)
		}
	}
}

func TestShareAnchoredPassThrough(t *testing.T) {
	res := compile.Compile([]string{"^abc", "abd", "abe"}, compile.Options{ModePolicy: compile.ForceNFA})
	shared, err := compile.ShareNFAPrefixes(res, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	anchoredSeen := false
	for i := range shared.Regexes {
		c := &shared.Regexes[i]
		if c.NFA.StartAnchored {
			anchoredSeen = true
			if strings.HasPrefix(c.Source, "shared") {
				t.Error("anchored regex was merged into a shared group")
			}
		}
	}
	if !anchoredSeen {
		t.Error("anchored regex lost")
	}
}

func TestShareRespectsCapacity(t *testing.T) {
	// Many patterns with a long common prefix; each group must stay under
	// the array capacity.
	var patterns []string
	for i := 0; i < 60; i++ {
		patterns = append(patterns, "commonprefix"+strings.Repeat(string(rune('a'+i%26)), 30))
	}
	_, shared := shareAllNFA(t, patterns)
	for i := range shared.Regexes {
		if shared.Regexes[i].STEs > 2048 {
			t.Errorf("group %d has %d STEs", i, shared.Regexes[i].STEs)
		}
	}
}

func TestShareMixedModesPassThrough(t *testing.T) {
	res := compile.Compile([]string{"abc", "x{100}", "a(b|c)*d"}, compile.Options{})
	shared, err := compile.ShareNFAPrefixes(res, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	modes := map[compile.Mode]int{}
	for i := range shared.Regexes {
		modes[shared.Regexes[i].Mode]++
	}
	if modes[compile.ModeNBVA] != 1 || modes[compile.ModeLNFA] != 1 || modes[compile.ModeNFA] != 1 {
		t.Errorf("modes = %v", modes)
	}
}

// TestShareKeepsImportedNFAs: an imported automaton has no regex to
// factor, so sharing keeps it as it is instead of reparsing its label.
func TestShareKeepsImportedNFAs(t *testing.T) {
	re, err := regexast.Parse("ab")
	if err != nil {
		t.Fatal(err)
	}
	nfa, err := automata.Glushkov(re, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, labels := range [][]string{{"x"}, nil} {
		shared, err := compile.ShareNFAPrefixes(compile.FromNFAs([]*automata.NFA{nfa}, labels), compile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(shared.Regexes) != 1 || shared.Regexes[0].NFA != nfa {
			t.Fatalf("labels %q: shared result %+v, want the imported NFA alone", labels, shared.Regexes)
		}
		if got := countReports(nfa, []byte("ab")) + countReports(shared.Regexes[0].NFA, []byte("x")); got != 1 {
			t.Errorf("labels %q: %d reports on ab and x, want 1", labels, got)
		}
	}
}

// TestShareEqualsMembersOnDatasets holds the shared unions to the NFAs
// they replace on every seeded dataset, under the full decision graph
// and ForceNFA: at each position of the dataset's input, followed by an
// exemplar of every member so that each one reports, their reports sum
// to the same count. Each pattern is listed twice, so every text has a
// duplicate that must report on its own; Prosite spells one class two
// ways ([PT] and [TP]), which the trie must share.
func TestShareEqualsMembersOnDatasets(t *testing.T) {
	type set struct {
		name  string
		scale float64
	}
	sets := []set{{"Prosite", 1}}
	for _, name := range workload.Names {
		sets = append(sets, set{name, 0.2})
	}
	for _, s := range sets {
		d := workload.MustGenerate(s.name, s.scale, 1)
		for _, pol := range []compile.ModePolicy{compile.PolicyDefault, compile.ForceNFA} {
			res := compile.Compile(append(slices.Clip(d.Patterns), d.Patterns...), compile.Options{ModePolicy: pol})
			shared, err := compile.ShareNFAPrefixes(res, compile.Options{ModePolicy: pol})
			if err != nil {
				t.Fatal(err)
			}
			input := d.Input(4096, 1)
			r := rand.New(rand.NewSource(1))
			var members, unions []*automata.Runner
			for i := range res.Regexes {
				c := &res.Regexes[i]
				if c.Mode == compile.ModeNFA && c.AST != nil && !c.AST.StartAnchored && !c.AST.EndAnchored {
					members = append(members, automata.NewRunner(c.NFA))
					input = append(append(input, workload.Exemplar(c.Source, r)...), '\n')
				}
			}
			for i := range shared.Regexes {
				if strings.HasPrefix(shared.Regexes[i].Source, "shared-nfa-group-") {
					unions = append(unions, automata.NewRunner(shared.Regexes[i].NFA))
				}
			}
			if len(members) > 0 && len(unions) == 0 {
				t.Fatalf("%s@%v %s: %d NFAs and no shared union", s.name, s.scale, pol, len(members))
			}
			step := func(rs []*automata.Runner, b byte) int {
				n := 0
				for _, r := range rs {
					r.Step(b)
					n += r.FinalsActive()
				}
				return n
			}
			for i, b := range input {
				if got, want := step(unions, b), step(members, b); got != want {
					t.Fatalf("%s@%v %s: offset %d: unions report %d, members %d", s.name, s.scale, pol, i, got, want)
				}
			}
		}
	}
}
