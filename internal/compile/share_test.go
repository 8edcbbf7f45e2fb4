package compile_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/compile"
	"repro/internal/refmatch"
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

func TestShareDuplicatePatternsReportTwice(t *testing.T) {
	_, shared := shareAllNFA(t, []string{"abc", "abc"})
	input := []byte("xxabcxx")
	got := 0
	for i := range shared.Regexes {
		got += countReports(shared.Regexes[i].NFA, input)
	}
	if got != 2 {
		t.Errorf("duplicate patterns reported %d matches, want 2", got)
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
