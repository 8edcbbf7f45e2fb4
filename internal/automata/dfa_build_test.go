package automata

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/regexast"
)

// fired returns how many reports state s of d fires, of any member.
func fired(d *DFA, s int32) int {
	n := 0
	d.Emit(s, 0, func(int, int) { n++ })
	return n
}

// memberEnd is one report of a DFA: member fires at end.
type memberEnd struct{ member, end int }

// TestBuildDFAEquivalence holds every DFA, of one member and of several,
// to its members' NFAs run on their own: the same ends, each with the
// multiplicity of the member's final states active there. ScanFrom and a
// Step and Emit per byte report alike.
func TestBuildDFAEquivalence(t *testing.T) {
	patterns := []string{
		"abc", "a(b|c)*d", "a[bc].d?", "x.y", "[0-9][0-9]", "a.*z",
		"q(w|e)+r", "ab|cd|ef",
	}
	sets := [][]string{patterns, {"ab+c", "key[0-9]*x", "a.*b", "x(yz|zy)w"}}
	for _, p := range patterns {
		sets = append(sets, []string{p})
	}
	r := rand.New(rand.NewSource(6))
	for _, set := range sets {
		nfas := make([]*NFA, len(set))
		for k, p := range set {
			nfas[k] = mustNFA(t, p)
		}
		dfa, err := BuildDFA(0, nfas...)
		if err != nil {
			t.Fatalf("%q: %v", set, err)
		}
		for trial := 0; trial < 50; trial++ {
			input := make([]byte, r.Intn(30))
			if trial == 0 {
				input = make([]byte, 4096)
			}
			for i := range input {
				input[i] = "abcdefqwrxyz059key "[r.Intn(19)]
			}
			want := map[memberEnd]int{}
			for k, nfa := range nfas {
				nr := NewRunner(nfa)
				for i, b := range input {
					if nr.Step(b) {
						want[memberEnd{k, i}] += nr.FinalsActive()
					}
				}
			}
			got, stepped := map[memberEnd]int{}, map[memberEnd]int{}
			dfa.ScanFrom(0, input, 0, func(k, end int) { got[memberEnd{k, end}]++ })
			state := int32(0)
			for i, b := range input {
				state = dfa.Step(state, b)
				dfa.Emit(state, i, func(k, end int) { stepped[memberEnd{k, end}]++ })
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stepped, want) {
				t.Fatalf("%q input %q: ScanFrom %v, Step %v, NFAs %v", set, input, got, stepped, want)
			}
		}
	}
}

// TestBuildDFACapAndAnchors: past its cap BuildDFA fails typed, with one
// member and with several. Anchored and nullable NFAs have DFAs that fire
// where the NFA does, report for report. A start-anchored one injects its
// initial states from state 0 alone, so a byte that starts no match leaves
// it in its dead row, which is its second rest row and wakes on no byte;
// an end-anchored one records the anchor for the scanner. A union of two
// or more refuses an anchored member.
func TestBuildDFACapAndAnchors(t *testing.T) {
	for _, c := range []struct {
		cap      int
		patterns []string
	}{{64, []string{"a.{14}"}}, {4, []string{"a.*b.*c.*d.*e"}}, {4, []string{"abc", "a.*b.*c.*d.*e"}}} {
		var nfas []*NFA
		for _, p := range c.patterns {
			nfas = append(nfas, mustNFA(t, p))
		}
		if _, err := BuildDFA(c.cap, nfas...); !errors.Is(err, ErrStateCapExceeded) {
			t.Errorf("%q under cap %d: expected ErrStateCapExceeded, got %v", c.patterns, c.cap, err)
		}
	}
	inputs := []string{"abc", "xabc", "abcabc", "abd", "acbd", "ababab", "ab", "abx"}
	for _, p := range []string{"^abc", "abc$", "^a(b|c)*d", "^(ab)*", "a(b|c)*d$", "^ab$", "(ab)*x?"} {
		nfa := mustNFA(t, p)
		dfa, err := BuildDFA(0, nfa)
		if err != nil {
			t.Fatalf("%q: %v", p, err)
		}
		if dfa.EndAnchored != nfa.EndAnchored {
			t.Errorf("%q: EndAnchored %v, NFA's %v", p, dfa.EndAnchored, nfa.EndAnchored)
		}
		for _, input := range inputs {
			nr := NewRunner(nfa)
			state := int32(0)
			for i, b := range []byte(input) {
				nr.Step(b)
				if state = dfa.Step(state, b); fired(dfa, state) != nr.FinalsActive() {
					t.Fatalf("%q on %q at %d: DFA %d reports, NFA %d", p, input, i, fired(dfa, state), nr.FinalsActive())
				}
			}
		}
		if nfa.StartAnchored || nfa.EndAnchored {
			other := mustNFA(t, "xyz")
			for _, members := range [][]*NFA{{nfa, other}, {other, nfa}} {
				if _, err := BuildDFA(0, members...); err == nil {
					t.Errorf("%q: a union accepted the anchored member", p)
				}
			}
		}
		if !nfa.StartAnchored {
			continue
		}
		if dead := dfa.Step(0, 'x') * int32(dfa.numParts); dead == 0 || dead != dfa.rest[1] || !dfa.escape[1].IsEmpty() {
			t.Errorf("%q: 'x' leads to row %d, rest rows %v, the second escaped by %v", p, dead, dfa.rest, dfa.escape[1])
		}
	}
}

func TestDFAMatchEnds(t *testing.T) {
	nfa := mustNFA(t, "ab")
	dfa, err := BuildDFA(0, nfa)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	NewWakeLoop([]*DFA{dfa}).Scan(make([]int32, 1), []byte("abxab"), 0, func(_, end int) { ends = append(ends, end) })
	if len(ends) != 2 || ends[0] != 1 || ends[1] != 4 {
		t.Errorf("MatchEnds = %v", ends)
	}
	if dfa.NumStates() < 2 {
		t.Errorf("states = %d", dfa.NumStates())
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
		dfa, err := BuildDFA(4096, nfa)
		if err != nil {
			continue // capped; fine
		}
		for rep := 0; rep < 10; rep++ {
			input := make([]byte, r.Intn(20))
			for i := range input {
				input[i] = byte('a' + r.Intn(4))
			}
			nr := NewRunner(nfa)
			state := int32(0)
			for _, b := range input {
				nr.Step(b)
				if state = dfa.Step(state, b); nr.FinalsActive() != fired(dfa, state) {
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
	dfa, err := BuildDFA(0, nfa)
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
		state := int32(0)
		for _, c := range input {
			state = dfa.Step(state, c)
		}
	}
}
