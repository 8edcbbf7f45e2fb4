package nbva

import (
	"sort"

	"repro/internal/bitvec"
)

// This file implements the nondeterministic counter automaton (NCA) view
// of an NBVA (§2.1: bit vectors "correspond to sets of counter values in
// the closely related model of nondeterministic counter automata"). A
// BV-STE's vector with bit i set is the counter set containing value i+1.
//
// The CounterRunner executes the same Machine with explicit sorted
// counter-value sets instead of bit vectors. It exists as an independent
// second implementation of the NBVA semantics: the property tests assert
// Runner and CounterRunner agree on every input, which guards the
// bit-level shift/set1/read/overflow logic against off-by-one drift.

// CounterRunner executes a Machine using counter-set semantics.
type CounterRunner struct {
	m        *Machine
	enabled  bitvec.Vector
	initial  bitvec.Vector
	counters [][]int // BV-STE state -> sorted counter values (ascending)
	readOK   []bool
	pos      int

	// Per-Step scratch, reused so stepping stays allocation-free after
	// the counter slices reach steady-state capacity.
	matched bitvec.Vector
	next    bitvec.Vector
}

// NewCounterRunner creates a counter-based runner in the initial
// configuration.
func NewCounterRunner(m *Machine) *CounterRunner {
	n := len(m.States)
	r := &CounterRunner{
		m:        m,
		enabled:  bitvec.New(n),
		initial:  bitvec.New(n),
		counters: make([][]int, n),
		readOK:   make([]bool, n),
		matched:  bitvec.New(n),
		next:     bitvec.New(n),
	}
	for _, q := range m.Initial {
		r.initial.Set(q)
	}
	r.Reset()
	return r
}

// Reset restores the initial configuration.
func (r *CounterRunner) Reset() {
	r.enabled.Reset()
	r.enabled.Or(r.initial)
	for i := range r.counters {
		r.counters[i] = r.counters[i][:0]
	}
	for i := range r.readOK {
		r.readOK[i] = false
	}
	r.pos = 0
}

// Step consumes one byte and reports whether a match ends at it.
func (r *CounterRunner) Step(b byte) bool {
	m := r.m
	matched := r.matched
	matched.Reset()
	for i := range m.States {
		s := &m.States[i]
		if s.BV == nil {
			if r.enabled.Get(i) && s.Class.Contains(b) {
				matched.Set(i)
			}
			continue
		}
		vals := r.counters[i]
		entry := r.enabled.Get(i)
		if !s.Class.Contains(b) {
			r.counters[i] = vals[:0]
			r.readOK[i] = false
			continue
		}
		if !entry && len(vals) == 0 {
			r.readOK[i] = false
			continue
		}
		// Increment every live counter (the shift action), dropping those
		// that exceed the vector size (the overflow check), and start a
		// new counter at 1 on entry (the set1 action).
		next := vals[:0]
		for _, v := range vals {
			if v+1 <= s.BV.Size {
				next = append(next, v+1)
			}
		}
		if entry {
			next = insertSorted(next, 1)
		}
		r.counters[i] = next
		if len(next) == 0 {
			r.readOK[i] = false
			continue
		}
		switch s.BV.Read {
		case ReadExact:
			r.readOK[i] = containsSorted(next, s.BV.Size)
		case ReadAll:
			r.readOK[i] = true
		}
		matched.Set(i)
	}
	// Transition.
	r.next.Reset()
	match := false
	for i := matched.NextSet(0); i >= 0; i = matched.NextSet(i + 1) {
		s := &m.States[i]
		if s.BV != nil && !r.readOK[i] {
			continue
		}
		for _, q := range s.Follow {
			r.next.Set(q)
		}
		if isFinal(m, i) {
			match = true
		}
	}
	r.enabled, r.next = r.next, r.enabled
	if !m.StartAnchored {
		r.enabled.Or(r.initial)
	}
	r.pos++
	return match
}

func isFinal(m *Machine, q int) bool {
	for _, f := range m.Final {
		if f == q {
			return true
		}
	}
	return false
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func containsSorted(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// MatchEndsCounter runs the counter-semantics runner over input and
// returns match end offsets, mirroring Machine.MatchEnds.
func (m *Machine) MatchEndsCounter(input []byte) []int {
	var ends []int
	if m.MatchesEmpty {
		ends = append(ends, -1)
	}
	r := NewCounterRunner(m)
	for i, b := range input {
		if r.Step(b) {
			if !m.EndAnchored || i == len(input)-1 {
				ends = append(ends, i)
			}
		}
	}
	return ends
}
