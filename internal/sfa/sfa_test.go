package sfa

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/automata"
	"repro/internal/regexast"
)

// buildNFAs parses and Glushkov-constructs one NFA per pattern.
func buildNFAs(t *testing.T, patterns []string) []*automata.NFA {
	t.Helper()
	nfas := make([]*automata.NFA, len(patterns))
	for i, p := range patterns {
		re, err := regexast.Parse(p)
		if err != nil {
			t.Fatalf("parse %q: %v", p, err)
		}
		nfa, err := automata.Glushkov(re, 0)
		if err != nil {
			t.Fatalf("glushkov %q: %v", p, err)
		}
		nfas[i] = nfa
	}
	return nfas
}

type report struct {
	pattern int
	end     int
}

func scanAll(m *automata.DFA, input []byte) []report {
	var out []report
	m.ScanFrom(0, input, 0, func(p int, end int) {
		out = append(out, report{p, end})
	})
	return out
}

var testPatterns = []string{
	"ab+c",
	"key[0-9]*x",
	"a.*b",
	"x(yz|zy)w",
}

func testInput(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	alpha := []byte("abckeyxyzw0123 ")
	in := make([]byte, n)
	for i := range in {
		in[i] = alpha[rng.Intn(len(alpha))]
	}
	return in
}

// TestSerialEquivalence checks the union DFA's reports against each
// component NFA run on its own: same ends, same multiplicity.
func TestSerialEquivalence(t *testing.T) {
	nfas := buildNFAs(t, testPatterns)
	m, err := automata.BuildDFA(0, nfas...)
	if err != nil {
		t.Fatal(err)
	}
	input := testInput(4096, 7)
	got := map[report]int{}
	for _, r := range scanAll(m, input) {
		got[r]++
	}
	want := map[report]int{}
	for pi, nfa := range nfas {
		r := automata.NewRunner(nfa)
		for i, b := range input {
			if r.Step(b) {
				want[report{pi, i}] += r.FinalsActive()
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("union reports differ from per-pattern NFA runs: got %d entries, want %d", len(got), len(want))
	}
}

// TestMapChunkComposition checks that chunk functions compose: the map of
// a concatenation equals the composition of the parts' maps, and that
// joining maps left to right tracks ScanFrom's exit state.
func TestMapChunkComposition(t *testing.T) {
	m, err := automata.BuildDFA(0, buildNFAs(t, testPatterns)...)
	if err != nil {
		t.Fatal(err)
	}
	input := testInput(2000, 11)
	discard := func(int, int) {}
	for _, cut := range []int{0, 1, 7, 500, 1999, 2000} {
		left, _ := MapChunk(m, input[:cut], 0, discard)
		right, _ := MapChunk(m, input[cut:], cut, discard)
		whole, _ := MapChunk(m, input, 0, discard)
		for s := 0; s < m.NumStates(); s++ {
			if joined := right.At(left.At(int32(s))); joined != whole.At(int32(s)) {
				t.Fatalf("cut %d: right(left(%d))=%d, whole=%d", cut, s, joined, whole.At(int32(s)))
			}
		}
	}
	whole, _ := MapChunk(m, input, 0, discard)
	if exit := m.ScanFrom(0, input, 0, discard); exit != whole.At(0) {
		t.Fatalf("map disagrees with serial exit state: %d vs %d", whole.At(0), exit)
	}
	empty, _ := MapChunk(m, nil, 0, discard)
	for s := 0; s < m.NumStates(); s++ {
		if empty.At(int32(s)) != int32(s) {
			t.Fatalf("the empty chunk maps state %d to %d", s, empty.At(int32(s)))
		}
	}
}

// TestMapChunkReplayExactness checks the parallel reporting contract:
// suffix reports emitted by MapChunk plus a ScanFrom replay of the
// prefix chunk[:conv] reproduce a serial scan from any entry state.
func TestMapChunkReplayExactness(t *testing.T) {
	m, err := automata.BuildDFA(0, buildNFAs(t, testPatterns)...)
	if err != nil {
		t.Fatal(err)
	}
	input := testInput(1500, 23)
	var suffix []report
	f, conv := MapChunk(m, input, 0, func(p, end int) {
		suffix = append(suffix, report{p, end})
	})
	for _, entry := range []int32{0, f.At(0), int32(m.NumStates() - 1)} {
		var serial []report
		m.ScanFrom(entry, input, 0, func(p, end int) {
			serial = append(serial, report{p, end})
		})
		var replayed []report
		m.ScanFrom(entry, input[:conv], 0, func(p, end int) {
			replayed = append(replayed, report{p, end})
		})
		replayed = append(replayed, suffix...)
		if !reflect.DeepEqual(serial, replayed) {
			t.Fatalf("entry %d: replay+suffix (%d reports) differs from serial (%d reports), conv=%d",
				entry, len(replayed), len(serial), conv)
		}
	}
}

// TestBuildCap checks the typed cap overflow.
func TestBuildCap(t *testing.T) {
	if _, err := automata.BuildDFA(4, buildNFAs(t, []string{"a.*b.*c.*d.*e"})...); !errors.Is(err, automata.ErrStateCapExceeded) {
		t.Fatalf("want ErrStateCapExceeded, got %v", err)
	}
}

// TestBuildRejectsAnchors checks the eligibility guard of the union: a
// DFA of several patterns refuses an anchored member. (A single anchored
// pattern has a DFA of its own.)
func TestBuildRejectsAnchors(t *testing.T) {
	for _, p := range []string{"^abc", "abc$"} {
		nfas := buildNFAs(t, append([]string{p}, testPatterns...))
		if _, err := automata.BuildDFA(0, nfas...); err == nil {
			t.Fatalf("BuildDFA accepted anchored pattern %q in a union", p)
		}
	}
}
