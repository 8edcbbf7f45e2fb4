package automata

import (
	"fmt"
	"testing"
)

func TestDFASizeSimpleString(t *testing.T) {
	// Unanchored "abc": subset states are prefixes of abc intersected
	// with re-injected initials — a small constant.
	nfa := mustNFA(t, "abc")
	res := DFASize(nfa, 0)
	if res.Capped {
		t.Fatal("capped on tiny automaton")
	}
	if res.States < 2 || res.States > 8 {
		t.Errorf("States = %d", res.States)
	}
}

func TestDFASizeClassicBlowup(t *testing.T) {
	// .*a.{n} has a DFA of size ~2^n: the automaton must remember which
	// of the last n positions held an 'a'.
	small := mustNFA(t, "a.{3}")
	large := mustNFA(t, "a.{10}")
	rs := DFASize(small, 0)
	rl := DFASize(large, 1<<9)
	if rs.States >= rl.States && !rl.Capped {
		t.Errorf("no blowup: %d vs %d", rs.States, rl.States)
	}
	if !rl.Capped && rl.States < 512 {
		t.Errorf("a.{10} DFA states = %d, expected ≥ 2^9 or capped", rl.States)
	}
}

func TestDFASizeCap(t *testing.T) {
	nfa := mustNFA(t, "a.{16}")
	res := DFASize(nfa, 100)
	if !res.Capped || res.States != 100 {
		t.Errorf("cap not honored: %+v", res)
	}
}

func TestDFASizeBoundedRepetitionGrowsLinearly(t *testing.T) {
	// The §2.1 motivation in numbers: for c{n} (after a distinct prefix)
	// the DFA grows with n while the NBVA uses O(1) control states.
	var prev int
	for _, n := range []int{8, 16, 32} {
		nfa := mustNFA(t, fmt.Sprintf("xc{%d}y", n))
		res := DFASize(nfa, 0)
		if res.Capped {
			t.Fatalf("capped at n=%d", n)
		}
		if res.States <= prev {
			t.Errorf("DFA size not growing: n=%d states=%d prev=%d", n, res.States, prev)
		}
		prev = res.States
	}
}

func TestAlphabetPartitions(t *testing.T) {
	nfa := mustNFA(t, "a[bc]")
	partition, labels := alphabetPartitions(nfa.classes())
	// Partitions: {a}, {b,c}, everything else = 3.
	if len(labels) != 3 || partition['b'] != partition['c'] || partition['a'] == partition['b'] {
		t.Errorf("partitions = %d (a=%d b=%d c=%d)", len(labels), partition['a'], partition['b'], partition['c'])
	}
	anyNFA := mustNFA(t, "...")
	if _, got := alphabetPartitions(anyNFA.classes()); len(got) != 1 {
		t.Errorf("'.' partitions = %d", len(got))
	}
}
