package automata

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/charclass"
)

// numStates returns the state count of nfa's DFA under cap, or -1 when
// the construction passes it.
func numStates(t *testing.T, nfa *NFA, cap int) int {
	t.Helper()
	dfa, err := BuildDFA(cap, nfa)
	if errors.Is(err, ErrStateCapExceeded) {
		return -1
	} else if err != nil {
		t.Fatal(err)
	}
	return dfa.NumStates()
}

func TestDFAStatesSimpleString(t *testing.T) {
	// Unanchored "abc": subset states are prefixes of abc intersected
	// with re-injected initials — a small constant.
	if n := numStates(t, mustNFA(t, "abc"), 0); n < 2 || n > 8 {
		t.Errorf("States = %d", n)
	}
}

func TestDFAStatesClassicBlowup(t *testing.T) {
	// .*a.{n} has a DFA of size ~2^n: the automaton must remember which
	// of the last n positions held an 'a'.
	rs := numStates(t, mustNFA(t, "a.{3}"), 0)
	if rs < 0 || rs >= 1<<9 {
		t.Errorf("a.{3} DFA states = %d", rs)
	}
	if rl := numStates(t, mustNFA(t, "a.{10}"), 1<<9); rl >= 0 {
		t.Errorf("a.{10} DFA states = %d, expected more than 2^9", rl)
	}
}

func TestDFAStatesCap(t *testing.T) {
	if n := numStates(t, mustNFA(t, "a.{16}"), 100); n >= 0 {
		t.Errorf("cap not honored: %d states", n)
	}
}

func TestDFAStatesBoundedRepetitionGrowsLinearly(t *testing.T) {
	// The §2.1 motivation in numbers: for c{n} (after a distinct prefix)
	// the DFA grows with n while the NBVA uses O(1) control states.
	var prev int
	for _, n := range []int{8, 16, 32} {
		states := numStates(t, mustNFA(t, fmt.Sprintf("xc{%d}y", n)), 100000)
		if states < 0 {
			t.Fatalf("capped at n=%d", n)
		}
		if states <= prev {
			t.Errorf("DFA size not growing: n=%d states=%d prev=%d", n, states, prev)
		}
		prev = states
	}
}

// classesOf returns the per-state character classes of n, the form
// alphabetPartitions takes.
func classesOf(n *NFA) []charclass.Class {
	out := make([]charclass.Class, len(n.States))
	for q, s := range n.States {
		out[q] = s.Class
	}
	return out
}

func TestAlphabetPartitions(t *testing.T) {
	nfa := mustNFA(t, "a[bc]")
	partition, labels := alphabetPartitions(classesOf(nfa))
	// Partitions: {a}, {b,c}, everything else = 3.
	if len(labels) != 3 || partition['b'] != partition['c'] || partition['a'] == partition['b'] {
		t.Errorf("partitions = %d (a=%d b=%d c=%d)", len(labels), partition['a'], partition['b'], partition['c'])
	}
	anyNFA := mustNFA(t, "...")
	if _, got := alphabetPartitions(classesOf(anyNFA)); len(got) != 1 {
		t.Errorf("'.' partitions = %d", len(got))
	}
}

// referencePartitions is the probe alphabetPartitions refines blocks
// instead of running: every state's class asked about each of the 256
// bytes, and the byte's label vector looked up by its words.
func referencePartitions(classes []charclass.Class) (partition [256]uint16, labels []bitvec.Vector) {
	ids := map[string]uint16{}
	var key []byte
	sig := bitvec.New(len(classes))
	for c := 0; c < charclass.AlphabetSize; c++ {
		sig.Reset()
		for q, cl := range classes {
			if cl.Contains(byte(c)) {
				sig.Set(q)
			}
		}
		key = appendKey(key[:0], sig)
		id, ok := ids[string(key)]
		if !ok {
			id = uint16(len(labels))
			ids[string(key)] = id
			labels = append(labels, sig.Clone())
		}
		partition[c] = id
	}
	return partition, labels
}

// TestAlphabetPartitionsEqualReference: block refinement gives the
// reference probe's partition and labels, class numbers included, over
// random class sets: ranges, scattered bytes, repeats and the extremes.
func TestAlphabetPartitionsEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randomClass := func() charclass.Class {
		switch rng.Intn(5) {
		case 0:
			lo := byte(rng.Intn(256))
			return charclass.Range(lo, lo+byte(rng.Intn(256-int(lo))))
		case 1:
			return charclass.Class{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		case 2:
			return charclass.Single(byte(rng.Intn(256)))
		case 3:
			return charclass.Any()
		}
		return charclass.Class{}
	}
	for trial := 0; trial < 500; trial++ {
		classes := make([]charclass.Class, rng.Intn(40))
		for q := range classes {
			if classes[q] = randomClass(); q > 0 && rng.Intn(4) == 0 {
				classes[q] = classes[rng.Intn(q)]
			}
		}
		wantPart, wantLabels := referencePartitions(classes)
		gotPart, gotLabels := alphabetPartitions(classes)
		if gotPart != wantPart || len(gotLabels) != len(wantLabels) {
			t.Fatalf("trial %d: %d classes over %d states, want %d", trial, len(gotLabels), len(classes), len(wantLabels))
		}
		for k := range wantLabels {
			if gotLabels[k].String() != wantLabels[k].String() {
				t.Fatalf("trial %d: class %d labels %v, want %v", trial, k, gotLabels[k], wantLabels[k])
			}
		}
	}
}

// BenchmarkAlphabetPartitions partitions the alphabet of a 42-state NFA of
// literal bytes, ranges, negations and dots: the refinement, then the
// probe it replaced.
func BenchmarkAlphabetPartitions(b *testing.B) {
	classes := classesOf(mustNFA(b, strings.Repeat(`ab[c-f]x.\d[^y]`, 6)))
	for _, bm := range []struct {
		name string
		fn   func([]charclass.Class) ([256]uint16, []bitvec.Vector)
	}{{"refine", alphabetPartitions}, {"probe", referencePartitions}} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bm.fn(classes)
			}
		})
	}
}
