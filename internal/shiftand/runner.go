package shiftand

import "repro/internal/bitvec"

// Runner executes a compiled Machine with private state vectors, so one
// immutable Machine can back many concurrent scans — the software analogue
// of §3.3's multi-flow operation, where the CAM contents are shared and
// only the active vector is context-switched per flow. The Machine's
// preprocessed tables (labels, masks) are read-only through a Runner.
type Runner struct {
	m       *Machine
	states  bitvec.Vector
	scratch bitvec.Vector
}

// NewRunner creates a runner over m in the reset (no active states)
// configuration. The runner never mutates m.
func NewRunner(m *Machine) *Runner {
	return &Runner{
		m:       m,
		states:  bitvec.New(m.NumStates()),
		scratch: bitvec.New(m.NumStates()),
	}
}

// Step consumes one input byte and returns the indices of the patterns
// whose final state is active afterwards (matches ending at this symbol).
// The returned slice is valid until the next call.
func (r *Runner) Step(b byte) []int {
	m := r.m
	r.states.ShiftLeft()
	r.states.Or(m.maskInitial)
	r.states.And(m.labels[b])
	r.scratch.CopyFrom(r.states)
	r.scratch.And(m.maskFinal)
	if r.scratch.None() {
		return nil
	}
	var out []int
	for i := r.scratch.NextSet(0); i >= 0; i = r.scratch.NextSet(i + 1) {
		out = append(out, m.patternOf[i])
	}
	return out
}

// StatesRef returns the live state vector without copying — the cycle
// simulator reads per-tile activity off it. The caller must not modify
// it; it is overwritten by the next Step.
func (r *Runner) StatesRef() bitvec.Vector { return r.states }
