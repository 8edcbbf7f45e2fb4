// Package shiftand implements the Shift-And bit-parallel algorithm
// (Baeza-Yates & Gonnet) for executing Linear NFAs (§2.1, Fig 2), including
// the multi-pattern packing that RAP's LNFA binning relies on (§3.2).
//
// Conventions follow the paper: state q_i is bit i, maskInitial has bit 0
// of every packed pattern set, and one execution step is
//
//	next   = (states << 1) OR maskInitial
//	states = next AND labels[c]
//	match  = (states AND maskFinal) != 0
//
// Packing several patterns back to back needs no guard bits: a bit that
// shifts across a pattern boundary lands on the next pattern's initial
// state, which maskInitial re-activates every step anyway, so the leak
// never changes the computation.
package shiftand

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/charclass"
)

// Pattern is one linear pattern: a sequence of character classes,
// q_0 ... q_{n-1}, with q_0 initial and q_{n-1} final (the strict LNFA
// form executed by RAP hardware).
type Pattern []charclass.Class

// Machine is one or more linear patterns packed and preprocessed for
// simultaneous execution. It is immutable once built: the active states
// of a scan live in a Runner, so one Machine backs any number of them.
type Machine struct {
	classes     []charclass.Class
	patternOf   []int // state index -> pattern index
	starts      []int // pattern index -> first state index
	labels      [256]bitvec.Vector
	maskInitial bitvec.Vector
	maskFinal   bitvec.Vector
}

// New builds a machine for the given patterns packed in order. Patterns
// must be non-empty.
func New(patterns []Pattern) (*Machine, error) {
	total := 0
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("shiftand: pattern %d is empty", i)
		}
		total += len(p)
	}
	m := &Machine{
		classes:     make([]charclass.Class, 0, total),
		patternOf:   make([]int, 0, total),
		starts:      make([]int, len(patterns)),
		maskInitial: bitvec.New(total),
		maskFinal:   bitvec.New(total),
	}
	for pi, p := range patterns {
		m.starts[pi] = len(m.classes)
		m.maskInitial.Set(len(m.classes))
		for _, c := range p {
			m.classes = append(m.classes, c)
			m.patternOf = append(m.patternOf, pi)
		}
		m.maskFinal.Set(len(m.classes) - 1)
	}
	// Preprocessing step (1) of §2.1: character masks labels[c], filled
	// class-major: each state sets its bit for the bytes its class holds,
	// read off the class's four words.
	bitvec.NewSlab(m.labels[:], total)
	for i, cls := range m.classes {
		for w, word := range cls {
			for ; word != 0; word &= word - 1 {
				m.labels[w<<6|bits.TrailingZeros64(word)].Set(i)
			}
		}
	}
	return m, nil
}

// NumStates returns the total number of packed states.
func (m *Machine) NumStates() int { return len(m.classes) }

// NumPatterns returns the number of packed patterns.
func (m *Machine) NumPatterns() int { return len(m.starts) }

// PatternStart returns the packed state index of pattern p's first state.
func (m *Machine) PatternStart(p int) int { return m.starts[p] }
