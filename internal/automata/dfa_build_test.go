package automata

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/regexast"
)

func TestBuildDFAEquivalence(t *testing.T) {
	patterns := []string{
		"abc", "a(b|c)*d", "a[bc].d?", "x.y", "[0-9][0-9]", "a.*z",
		"q(w|e)+r", "ab|cd|ef",
	}
	r := rand.New(rand.NewSource(6))
	for _, p := range patterns {
		nfa := mustNFA(t, p)
		dfa, err := BuildDFA(nfa, 0)
		if err != nil {
			t.Fatalf("%q: %v", p, err)
		}
		for trial := 0; trial < 50; trial++ {
			input := make([]byte, r.Intn(30))
			for i := range input {
				input[i] = byte("abcdefqwrxyz059"[r.Intn(15)])
			}
			// Compare report multiplicity per offset with the NFA runner.
			nr := NewRunner(nfa)
			row, nGot := int32(0), 0
			for _, b := range input {
				nr.Step(b)
				nWant := nr.FinalsActive()
				row, nGot = dfa.Step(row, b)
				if nWant != nGot {
					t.Fatalf("%q input %q: DFA %d reports, NFA %d", p, input, nGot, nWant)
				}
			}
		}
	}
}

// TestBuildDFACapAndAnchors: past its cap BuildDFA fails typed. Anchored
// and nullable NFAs have DFAs that fire where the NFA does, report for
// report. A start-anchored one injects its initial states from row 0
// alone, so a byte that starts no match leaves it in its dead row, which is
// its second rest row and wakes on no byte; an end-anchored one records
// the anchor for the scanner.
func TestBuildDFACapAndAnchors(t *testing.T) {
	nfa := mustNFA(t, "a.{14}")
	if _, err := BuildDFA(nfa, 64); !errors.Is(err, ErrStateCapExceeded) {
		t.Errorf("expected ErrStateCapExceeded, got %v", err)
	}
	inputs := []string{"abc", "xabc", "abcabc", "abd", "acbd", "ababab", "ab", "abx"}
	for _, p := range []string{"^abc", "^a(b|c)*d", "^(ab)*", "a(b|c)*d$", "^ab$", "(ab)*x?"} {
		nfa := mustNFA(t, p)
		dfa, err := BuildDFA(nfa, 0)
		if err != nil {
			t.Fatalf("%q: %v", p, err)
		}
		if dfa.EndAnchored != nfa.EndAnchored {
			t.Errorf("%q: EndAnchored %v, NFA's %v", p, dfa.EndAnchored, nfa.EndAnchored)
		}
		for _, input := range inputs {
			nr := NewRunner(nfa)
			row, fired := int32(0), 0
			for i, b := range []byte(input) {
				nr.Step(b)
				if row, fired = dfa.Step(row, b); fired != nr.FinalsActive() {
					t.Fatalf("%q on %q at %d: DFA %d reports, NFA %d", p, input, i, fired, nr.FinalsActive())
				}
			}
		}
		if !nfa.StartAnchored {
			continue
		}
		if dead, _ := dfa.Step(0, 'x'); dead == 0 || dead != dfa.rest[1] || !dfa.escape[1].IsEmpty() {
			t.Errorf("%q: 'x' leads to row %d, rest rows %v, the second escaped by %v", p, dead, dfa.rest, dfa.escape[1])
		}
	}
}

func TestDFAMatchEnds(t *testing.T) {
	nfa := mustNFA(t, "ab")
	dfa, err := BuildDFA(nfa, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	NewWakeLoop([]*DFA{dfa}).Scan(make([]int32, 1), []byte("abxab"), 0, func(_, end int) { ends = append(ends, end) })
	if len(ends) != 2 || ends[0] != 1 || ends[1] != 4 {
		t.Errorf("MatchEnds = %v", ends)
	}
	if len(dfa.reports) < 2 {
		t.Errorf("states = %d", len(dfa.reports))
	}
}

func TestPropDFAEqualsNFAOnRandomPatterns(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		pattern := genAnchored(r, 3)
		re, err := regexast.Parse(pattern)
		if err != nil {
			t.Fatal(err)
		}
		nfa, err := Glushkov(re, 4096)
		if err != nil {
			continue
		}
		dfa, err := BuildDFA(nfa, 4096)
		if err != nil {
			continue // capped; fine
		}
		for rep := 0; rep < 10; rep++ {
			input := make([]byte, r.Intn(20))
			for i := range input {
				input[i] = byte('a' + r.Intn(4))
			}
			nr := NewRunner(nfa)
			row, fired := int32(0), 0
			for _, b := range input {
				nr.Step(b)
				if row, fired = dfa.Step(row, b); nr.FinalsActive() != fired {
					t.Fatalf("pattern %q input %q: divergence", pattern, input)
				}
			}
		}
	}
}

// genAnchored is genPattern with a start anchor, an end anchor, both or
// neither, each a quarter of the time.
func genAnchored(r *rand.Rand, depth int) string {
	p := genPattern(r, depth)
	switch r.Intn(4) {
	case 0:
		return "^" + p
	case 1:
		return p + "$"
	case 2:
		return "^" + p + "$"
	}
	return p
}

func BenchmarkDFAStep(b *testing.B) {
	nfa, _ := Glushkov(regexast.MustParse("a(b|c)*d.*xyz"), 0)
	dfa, err := BuildDFA(nfa, 0)
	if err != nil {
		b.Fatal(err)
	}
	input := make([]byte, 4096)
	r := rand.New(rand.NewSource(1))
	for i := range input {
		input[i] = byte('a' + r.Intn(26))
	}
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := int32(0)
		for _, c := range input {
			row, _ = dfa.Step(row, c)
		}
	}
}
