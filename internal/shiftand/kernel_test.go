package shiftand

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/automata"
)

// MatchEnd pairs a pattern index with the input offset its match ended at.
type MatchEnd struct {
	Pattern int
	End     int
}

// stepEnds runs a fresh runner over input with the per-byte Step and
// returns every (pattern, end) pair in stream order.
func stepEnds(m *Machine, input []byte) []MatchEnd {
	r := NewRunner(m)
	var out []MatchEnd
	for i, b := range input {
		for _, p := range r.Step(b) {
			out = append(out, MatchEnd{Pattern: p, End: i})
		}
	}
	return out
}

func sameMatches(a, b []MatchEnd) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chainNFA is the linear NFA of p: state i reads p[i] and follows to i+1.
func chainNFA(p Pattern) *automata.NFA {
	n := &automata.NFA{States: make([]automata.State, len(p)), Initial: []int{0}, Final: []int{len(p) - 1}}
	for i, c := range p {
		n.States[i].Class = c
		if i+1 < len(p) {
			n.States[i].Follow = []int{i + 1}
		}
	}
	return n
}

// TestKernelsAgreeWithStep: the software matcher scans a linear pattern
// with a DFA (automata.DFA), not with this machine; the union DFA of
// the packed patterns reports what Step reports, pattern for pattern and
// in the same order, whether the packed state is one word, two or more.
func TestKernelsAgreeWithStep(t *testing.T) {
	cases := []struct {
		name     string
		patterns []string
	}{
		{"single-word", []string{"abc", "a[bc].d", "xy"}},           // 12 states
		{"word-boundary", []string{"abcdefgh", "[a-h]{8}abcdefgh"}}, // spans >64 with the next
		{"multi-word", []string{
			"abcdefghij", "[a-j]{10}xyz", "0123456789", "[0-9]{20}",
			"qrstuvwxyz", "[k-t]{15}", "aaaaaaaaaaaaaaa",
		}},
	}
	rng := rand.New(rand.NewSource(3))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pats := make([]Pattern, len(tc.patterns))
			nfas := make([]*automata.NFA, len(tc.patterns))
			for i, p := range tc.patterns {
				pats[i] = seqOf(p)
				nfas[i] = chainNFA(pats[i])
			}
			m, err := New(pats)
			if err != nil {
				t.Fatal(err)
			}
			u, err := automata.BuildDFA(0, nfas...)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 100; trial++ {
				n := 1 + rng.Intn(200)
				input := make([]byte, n)
				for i := range input {
					input[i] = byte('a' + rng.Intn(12))
				}
				if trial%3 == 0 { // plant matches
					for _, p := range tc.patterns {
						if len(p) < n && p[0] != '[' {
							copy(input[rng.Intn(n-len(p)):], p)
						}
					}
				}
				want := stepEnds(m, input)
				var got []MatchEnd
				u.ScanFrom(0, input, 0, func(p, end int) { got = append(got, MatchEnd{p, end}) })
				if !sameMatches(got, want) {
					t.Fatalf("trial %d: union DFA %v, Step %v", trial, got, want)
				}
			}
		})
	}
}

// TestMultiWordZeroAlloc: the simulator steps a machine once per cycle,
// so a step that fires no final state allocates nothing, whether the
// state is one word, two or more.
func TestMultiWordZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		patterns []string
	}{
		{"1word", []string{"abc", "[ab]cd"}},
		{"2words", []string{"[a-z]{40}", "abcdefghijklmnopqrstuvwxyzabcdefghijklmn"}},
		{"3words", []string{"[a-z]{70}", "abcdefghijklmnopqrstuvwxyz", "[a-z]{40}abcdefghijklmn"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pats := make([]Pattern, len(tc.patterns))
			for i, p := range tc.patterns {
				pats[i] = seqOf(p)
			}
			m, err := New(pats)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(m)
			// Runs of 25 letters backwards: states light up, none is final.
			input := bytes.Repeat([]byte("zyxwvutsrqponmlkjihgfedcb "), 20)
			fired := 0
			allocs := testing.AllocsPerRun(100, func() {
				for _, b := range input {
					fired += len(r.Step(b))
				}
			})
			if allocs != 0 || fired != 0 {
				t.Errorf("%d states: Step allocs/op = %v with %d matches, want 0 and 0", m.NumStates(), allocs, fired)
			}
		})
	}
}

// BenchmarkStepLoop measures Step, the per-byte loop the simulator runs.
func BenchmarkStepLoop(b *testing.B) {
	m, err := New([]Pattern{seqOf("needle"), seqOf("ha[yz]stack")})
	if err != nil {
		b.Fatal(err)
	}
	r := NewRunner(m)
	input := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 1489)
	copy(input[len(input)/2:], "needle")
	sink := 0
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range input {
			for _, p := range r.Step(input[j]) {
				sink += p
			}
		}
	}
	_ = sink
}
