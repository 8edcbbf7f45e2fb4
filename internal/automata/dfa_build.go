package automata

import "fmt"

// DFA is a materialized deterministic automaton for streaming (unanchored)
// matching, built by subset construction over an NFA. §2.1 explains why
// hardware avoids DFAs — the state count can be exponential — but for
// small automata a DFA is the fastest software matcher (one table lookup
// per byte), which is how Hyperscan-class engines execute small patterns.
// The reference matcher uses it below a state-count threshold.
type DFA struct {
	// partition maps each input byte to its alphabet-equivalence class.
	partition [256]uint16
	// trans is the transition table: state*numParts + partition -> state.
	trans []int32
	// reports[state] is the number of NFA final states inside the subset —
	// the per-cycle report count, matching the hardware's counting.
	reports  []uint16
	numParts int
}

// BuildDFA materializes the streaming DFA of the NFA, failing with an
// error wrapping ErrStateCapExceeded beyond cap subset states (cap <= 0
// means 4096).
// Start-anchored NFAs are not supported (the streaming construction
// re-injects initial states every step).
func BuildDFA(n *NFA, cap int) (*DFA, error) {
	if n.StartAnchored {
		return nil, fmt.Errorf("automata: BuildDFA does not support start-anchored NFAs")
	}
	if cap <= 0 {
		cap = 4096
	}
	sub, err := Determinize(n.classes(), n.FollowMasks(), n.InitialSet(), cap)
	if err != nil {
		return nil, err
	}
	d := &DFA{partition: sub.Partition, numParts: sub.NumParts, trans: sub.Trans}
	final := n.FinalSet()
	for _, set := range sub.Sets {
		set.And(final)
		d.reports = append(d.reports, uint16(set.Count()))
	}
	return d, nil
}

// NumStates returns the DFA state count.
func (d *DFA) NumStates() int { return len(d.reports) }

// Runner state for the DFA is just an int; provide streaming helpers.

// DFARunner streams bytes through the DFA.
type DFARunner struct {
	d     *DFA
	state int32
}

// NewDFARunner returns a runner at the start state.
func NewDFARunner(d *DFA) *DFARunner { return &DFARunner{d: d} }

// Reset returns to the start state.
func (r *DFARunner) Reset() { r.state = 0 }

// Step consumes one byte and returns the number of reports fired.
func (r *DFARunner) Step(b byte) int {
	d := r.d
	r.state = d.trans[int(r.state)*d.numParts+int(d.partition[b])]
	return int(d.reports[r.state])
}

// MatchEnds returns every offset where at least one report fires, with
// multiplicity (one entry per reporting state), matching NFA-side
// semantics used by the reference matcher.
func (d *DFA) MatchEnds(input []byte) []int {
	r := NewDFARunner(d)
	var out []int
	for i, b := range input {
		for k := r.Step(b); k > 0; k-- {
			out = append(out, i)
		}
	}
	return out
}
