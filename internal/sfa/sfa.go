// Package sfa implements a Simultaneous Finite Automaton — the
// data-parallel single-stream scan engine of the serving stack. The
// construction follows Sin'ya & Matsuzaki's SFA idea: a chunk of input
// scanned by a DFA from *every* start state simultaneously yields a
// state-mapping function (a dense vector over the live states); mapping
// functions of adjacent chunks compose, so a buffer can be partitioned
// across workers, each chunk scanned independently, and the sequential
// dependency recovered by a cheap left-to-right join of the per-chunk
// functions. Match reporting is byte-exact versus serial scanning: the
// state trajectory of a chunk becomes entry-independent once all start
// states converge, so reports past the convergence point are collected
// during the simultaneous pass and only the (typically short) prefix is
// replayed once the true entry state is known.
//
// The machine itself is a union streaming DFA built by the same capped
// subset construction as automata.BuildDFA (automata.Determinize, DESIGN
// row 25), extended in two ways: it runs the disjoint union of many pattern NFAs at once, and
// each DFA state carries a per-pattern report list (which patterns fire,
// with what multiplicity) instead of a bare report count. Because the
// component NFAs are disjoint, the union subset construction is exactly
// the product of the per-pattern constructions, so reports agree
// byte-for-byte with the serial per-pattern DFA/NFA engines.
package sfa

import (
	"fmt"
	"sort"

	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/charclass"
)

// Report says that Count final states of pattern Pattern are active in a
// DFA state — the per-cycle report multiplicity, matching the per-byte
// engines' semantics (one emit per active final NFA state).
type Report struct {
	Pattern int32
	Count   uint16
}

// Machine is the union streaming DFA over a set of pattern NFAs, with
// per-state report lists. It is immutable after Build and safe for any
// number of concurrent scans.
type Machine struct {
	// partition maps each input byte to its alphabet-equivalence class
	// over the union automaton.
	partition [256]uint16
	numParts  int
	// trans is the transition table: state*numParts + partition -> state.
	trans []int32
	// Reports of state s live in reps[repOff[s]:repOff[s+1]], sorted by
	// pattern index.
	repOff    []uint32
	reps      []Report
	numStates int
}

// NumStates returns the DFA state count.
func (m *Machine) NumStates() int { return m.numStates }

// Build runs the capped union subset construction over the given NFAs.
// patternIdx[i] is the pattern index reported for matches of nfas[i]
// (typically the pattern's position in the compiled ruleset). Every NFA
// must be unanchored and ε-free-matching (no MatchesEmpty); cap <= 0
// means 4096. A construction exceeding cap subset states fails with an
// error wrapping automata.ErrStateCapExceeded.
func Build(nfas []*automata.NFA, patternIdx []int, cap int) (*Machine, error) {
	if len(nfas) == 0 {
		return nil, fmt.Errorf("sfa: no automata")
	}
	if len(nfas) != len(patternIdx) {
		return nil, fmt.Errorf("sfa: %d NFAs but %d pattern indices", len(nfas), len(patternIdx))
	}
	if cap <= 0 {
		cap = 4096
	}
	total := 0
	for i, n := range nfas {
		if n.StartAnchored || n.EndAnchored {
			return nil, fmt.Errorf("sfa: pattern %d is anchored", patternIdx[i])
		}
		if n.MatchesEmpty {
			return nil, fmt.Errorf("sfa: pattern %d matches the empty string", patternIdx[i])
		}
		total += len(n.States)
	}

	// Disjoint union of the component NFAs: classes, follow masks,
	// initial set and a state -> pattern map for finals.
	classes := make([]charclass.Class, 0, total)
	follow := make([]bitvec.Vector, total)
	initial := bitvec.New(total)
	final := bitvec.New(total)
	finalPat := make([]int32, total)
	for i := range finalPat {
		finalPat[i] = -1
	}
	base := 0
	for k, n := range nfas {
		for _, s := range n.States {
			classes = append(classes, s.Class)
		}
		for q, s := range n.States {
			v := bitvec.New(total)
			for _, succ := range s.Follow {
				v.Set(base + succ)
			}
			follow[base+q] = v
		}
		for _, q := range n.Initial {
			initial.Set(base + q)
		}
		for _, q := range n.Final {
			final.Set(base + q)
			finalPat[base+q] = int32(patternIdx[k])
		}
		base += len(n.States)
	}

	sub, err := automata.Determinize(classes, follow, initial, false, cap)
	if err != nil {
		return nil, fmt.Errorf("sfa: union DFA over %d patterns: %w", len(nfas), err)
	}
	m := &Machine{
		partition: sub.Partition,
		numParts:  sub.NumParts,
		trans:     sub.Trans,
		numStates: len(sub.Sets),
		repOff:    []uint32{0},
	}
	for _, set := range sub.Sets {
		m.appendReports(set, final, finalPat)
	}
	return m, nil
}

// appendReports records the per-pattern final-state counts of subset
// firing, which it narrows to its final states in place.
func (m *Machine) appendReports(firing, final bitvec.Vector, finalPat []int32) {
	firing.And(final)
	var rs []Report
	for q := firing.NextSet(0); q >= 0; q = firing.NextSet(q + 1) {
		p := finalPat[q]
		found := false
		for i := range rs {
			if rs[i].Pattern == p {
				rs[i].Count++
				found = true
				break
			}
		}
		if !found {
			rs = append(rs, Report{Pattern: p, Count: 1})
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Pattern < rs[j].Pattern })
	m.reps = append(m.reps, rs...)
	m.repOff = append(m.repOff, uint32(len(m.reps)))
}

// ScanFrom steps the machine over data starting in state, emitting every
// report as (pattern, base+i), and returns the exit state. It is the
// serial scan primitive: chunk 0 of a parallel scan runs on it directly
// (its entry state is known), and prefix replay after the join uses it.
func (m *Machine) ScanFrom(state int32, data []byte, base int, emit func(pattern int32, end int)) int32 {
	s := state
	for i := 0; i < len(data); i++ {
		s = m.trans[int(s)*m.numParts+int(m.partition[data[i]])]
		if m.repOff[s] != m.repOff[s+1] {
			m.emitState(s, base+i, emit)
		}
	}
	return s
}

// emitState fires every report of state s at offset end.
func (m *Machine) emitState(s int32, end int, emit func(pattern int32, end int)) {
	for _, r := range m.reps[m.repOff[s]:m.repOff[s+1]] {
		for c := r.Count; c > 0; c-- {
			emit(r.Pattern, end)
		}
	}
}
