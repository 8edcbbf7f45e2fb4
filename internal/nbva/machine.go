// Package nbva implements Nondeterministic Bit Vector Automata (§2.1),
// the execution model RAP uses for regexes with large bounded repetitions.
//
// A machine mixes standard STEs (one character class, NFA transitions)
// with BV-STEs that compress a bounded repetition σ{m} or σ{0,k} of a
// character class into a single control state carrying a bit vector.
// Bit i of the vector set means "a run of i+1 consecutive σ symbols ending
// now started from an entry". The supported bit-vector actions mirror the
// hardware (§3.1):
//
//	set1   — entry transition: OR in [1,0,...,0]
//	shift  — self loop on σ: shft(v), dropping overflow bits
//	r(m)   — read: succeed iff bit m-1 is set (exact repetition count m)
//	rAll   — read: succeed iff any bit is set (between 1 and k repetitions)
//
// together with the overflow check that deactivates a BV-STE whose vector
// became all-zero.
//
// Three executors run a Machine. Runner steps one byte at a time and
// keeps the hardware's per-cycle statistics; the cycle simulator reads
// them. CounterRunner is an independent implementation over counter sets.
// Kernel scans whole chunks and computes matches only; the software
// matcher uses it, and the tests hold it to the other two.
package nbva

import (
	"fmt"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/charclass"
)

// ReadAction selects how a BV-STE's read result is computed (§3.1).
type ReadAction int

const (
	// ReadExact is r(n): the read succeeds iff bit Size-1 is set.
	ReadExact ReadAction = iota
	// ReadAll is rAll: the read succeeds iff any bit is set.
	ReadAll
)

func (a ReadAction) String() string {
	if a == ReadAll {
		return "rAll"
	}
	return "r(n)"
}

// BVSpec describes the bit vector attached to a BV-STE.
type BVSpec struct {
	Size int        // bit vector length (m for σ{m}, k for σ{0,k})
	Read ReadAction // r(Size) or rAll
}

// STE is one state-transition element. BV == nil means a standard STE.
type STE struct {
	Class  charclass.Class
	Follow []int // successor STE indices, strictly increasing
	BV     *BVSpec
}

// Machine is a compiled NBVA.
type Machine struct {
	States  []STE
	Initial []int
	Final   []int

	MatchesEmpty  bool
	StartAnchored bool
	EndAnchored   bool
}

// NumStates returns the number of STEs (control states).
func (m *Machine) NumStates() int { return len(m.States) }

// TotalBVBits returns the sum of bit-vector sizes — the storage the CAM
// must provide in NBVA mode.
func (m *Machine) TotalBVBits() int {
	n := 0
	for _, s := range m.States {
		if s.BV != nil {
			n += s.BV.Size
		}
	}
	return n
}

// UnfoldedStates returns the number of STEs the equivalent basic NFA would
// need (each BV-STE counts Size states), the compression denominator used
// throughout §5.
func (m *Machine) UnfoldedStates() int {
	n := 0
	for _, s := range m.States {
		if s.BV != nil {
			n += s.BV.Size
		} else {
			n++
		}
	}
	return n
}

func (m *Machine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NBVA{%d states, I=%v, F=%v}\n", len(m.States), m.Initial, m.Final)
	for i, s := range m.States {
		if s.BV != nil {
			fmt.Fprintf(&b, "  q%d: %s BV(size=%d, %s) -> %v\n", i, s.Class.String(), s.BV.Size, s.BV.Read, s.Follow)
		} else {
			fmt.Fprintf(&b, "  q%d: %s -> %v\n", i, s.Class.String(), s.Follow)
		}
	}
	return b.String()
}

// Runner executes a Machine over a byte stream. It tracks, per step, which
// STEs were activated (the hardware's active vector) and the bit-vector
// contents of every BV-STE.
type Runner struct {
	m       *Machine
	enabled bitvec.Vector // STEs allowed to consume the next symbol
	initial bitvec.Vector
	stdMask bitvec.Vector // bits of standard (non-BV) STEs
	labels  [256]bitvec.Vector
	follow  []bitvec.Vector
	finals  bitvec.Vector
	bvIdx   []int           // indices of BV-STEs
	vectors []bitvec.Vector // per BV-STE state (nil for standard STEs)
	readOK  []bool
	pos     int

	// Stats for the cycle-level simulator.
	lastMatched     bitvec.Vector // STEs that matched the last symbol
	lastBVUpdated   []int         // machine state indices of BVs updated last step
	lastFinalsFired int           // reporting STEs that fired last step

	next bitvec.Vector
}

// NewRunner creates a runner in the initial configuration.
func NewRunner(m *Machine) *Runner {
	n := len(m.States)
	r := &Runner{
		m:           m,
		enabled:     bitvec.New(n),
		initial:     bitvec.New(n),
		stdMask:     bitvec.New(n),
		follow:      make([]bitvec.Vector, n),
		finals:      bitvec.New(n),
		vectors:     make([]bitvec.Vector, n),
		readOK:      make([]bool, n),
		lastMatched: bitvec.New(n),
		next:        bitvec.New(n),
	}
	for _, q := range m.Initial {
		r.initial.Set(q)
	}
	for _, q := range m.Final {
		r.finals.Set(q)
	}
	for i, s := range m.States {
		f := bitvec.New(n)
		for _, q := range s.Follow {
			f.Set(q)
		}
		r.follow[i] = f
		if s.BV != nil {
			r.vectors[i] = bitvec.New(s.BV.Size)
			r.bvIdx = append(r.bvIdx, i)
		} else {
			r.stdMask.Set(i)
		}
	}
	for c := 0; c < 256; c++ {
		v := bitvec.New(n)
		for i, s := range m.States {
			if s.Class.Contains(byte(c)) {
				v.Set(i)
			}
		}
		r.labels[c] = v
	}
	// Step reuses this scratch; sizing it to the BV-STE count up front
	// keeps the per-byte loop allocation-free.
	r.lastBVUpdated = make([]int, 0, len(r.bvIdx))
	r.Reset()
	return r
}

// Reset restores the initial configuration.
func (r *Runner) Reset() {
	r.enabled.Reset()
	r.enabled.Or(r.initial)
	for _, i := range r.bvIdx {
		r.vectors[i].Reset()
	}
	for i := range r.readOK {
		r.readOK[i] = false
	}
	r.pos = 0
	r.lastMatched.Reset()
	r.lastBVUpdated = r.lastBVUpdated[:0]
	r.lastFinalsFired = 0
}

// Step consumes one input byte and reports whether a match ends at it.
func (r *Runner) Step(b byte) bool {
	m := r.m
	r.lastBVUpdated = r.lastBVUpdated[:0]

	// Phase 1 (state matching), standard STEs: enabled AND labels[b].
	matched := r.lastMatched
	matched.CopyFrom(r.enabled)
	matched.And(r.labels[b])
	matched.And(r.stdMask)

	// Phase 2 (bit-vector processing): update every BV-STE that consumed
	// the symbol via entry (set1) or a live vector (shift).
	for _, i := range r.bvIdx {
		s := &m.States[i]
		v := r.vectors[i]
		entry := r.enabled.Get(i)
		selfLive := v.Any()
		if !s.Class.Contains(b) {
			// A non-σ symbol breaks every consecutive run.
			if selfLive {
				v.Reset()
			}
			r.readOK[i] = false
			continue
		}
		if !entry && !selfLive {
			r.readOK[i] = false
			continue
		}
		r.lastBVUpdated = append(r.lastBVUpdated, i)
		if selfLive {
			v.ShiftLeft() // shift action
		}
		if entry {
			v.Set(0) // set1 action
		}
		if v.None() {
			// Overflow check (§3.1): all counts shifted out; deactivate.
			r.readOK[i] = false
			continue
		}
		switch s.BV.Read {
		case ReadExact:
			r.readOK[i] = v.Get(s.BV.Size - 1)
		case ReadAll:
			r.readOK[i] = true // v is non-zero here
		}
		matched.Set(i)
	}

	// Phase 3 (state transition): standard STEs propagate when matched;
	// BV-STEs propagate when their read succeeded.
	r.next.Reset()
	matchFound := false
	r.lastFinalsFired = 0
	for i := matched.NextSet(0); i >= 0; i = matched.NextSet(i + 1) {
		if m.States[i].BV != nil && !r.readOK[i] {
			continue
		}
		r.next.Or(r.follow[i])
		if r.finals.Get(i) {
			matchFound = true
			r.lastFinalsFired++
		}
	}
	r.enabled, r.next = r.next, r.enabled
	// Unanchored automata have "all-input" initial STEs that are enabled
	// every cycle; StartAnchored ones get them only from Reset (offset 0).
	if !m.StartAnchored {
		r.enabled.Or(r.initial)
	}
	r.pos++
	return matchFound
}

// MatchedRef returns the active vector of the last Step. The caller must
// not modify it; it is overwritten by the next Step.
func (r *Runner) MatchedRef() bitvec.Vector { return r.lastMatched }

// BVUpdated returns the machine state indices of the BV-STEs whose bit
// vectors were updated in the last Step. Valid until the next Step.
func (r *Runner) BVUpdated() []int { return r.lastBVUpdated }

// FinalsFired returns the number of reporting STEs that fired in the last
// Step — the hardware's per-report count (a step can fire several finals).
func (r *Runner) FinalsFired() int { return r.lastFinalsFired }

// MatchEnds runs the machine over input from a fresh configuration and
// returns every match end offset (with -1 for the empty match).
func (m *Machine) MatchEnds(input []byte) []int {
	var ends []int
	if m.MatchesEmpty {
		ends = append(ends, -1)
	}
	r := NewRunner(m)
	for i, b := range input {
		if r.Step(b) {
			if !m.EndAnchored || i == len(input)-1 {
				ends = append(ends, i)
			}
		}
	}
	return ends
}
