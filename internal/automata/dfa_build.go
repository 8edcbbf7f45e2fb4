package automata

import (
	"fmt"
	"math"
)

// DFA is a materialized deterministic automaton for streaming (unanchored)
// matching, built by subset construction over an NFA. §2.1 explains why
// hardware avoids DFAs — the state count can be exponential — but for
// small automata a DFA is the fastest software matcher (one table lookup
// per byte), which is how Hyperscan-class engines execute small patterns.
// The reference matcher uses it below a state-count threshold.
type DFA struct {
	// partition maps each input byte to its alphabet-equivalence class.
	partition [256]uint16
	// trans is the transition table in the form the scan loop wants it. A
	// state is named by the offset of its row, state*numParts, so a step
	// is one add and one load: trans[row+partition] is the next row. A
	// transition into a reporting state stores the complement of the row,
	// which tells the loop to look at reports without loading it per byte.
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
	if len(sub.Trans) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d states of %d alphabet classes overflow the table's row offsets",
			ErrStateCapExceeded, len(sub.Sets), sub.NumParts)
	}
	d := &DFA{partition: sub.Partition, numParts: sub.NumParts, trans: sub.Trans}
	final := n.FinalSet()
	for _, set := range sub.Sets {
		set.And(final)
		d.reports = append(d.reports, uint16(set.Count()))
	}
	for i, next := range d.trans {
		row := next * int32(d.numParts)
		if d.reports[next] > 0 {
			row = ^row
		}
		d.trans[i] = row
	}
	return d, nil
}

// NumStates returns the DFA state count.
func (d *DFA) NumStates() int { return len(d.reports) }

// DFARunner streams bytes through the DFA.
type DFARunner struct {
	d   *DFA
	row int32 // the current state's row offset in d.trans
}

// NewDFARunner returns a runner at the start state.
func NewDFARunner(d *DFA) *DFARunner { return &DFARunner{d: d} }

// Reset returns to the start state.
func (r *DFARunner) Reset() { r.row = 0 }

// Step consumes one byte and returns the number of reports fired.
func (r *DFARunner) Step(b byte) int {
	d := r.d
	r.row = d.trans[int(r.row)+int(d.partition[b])]
	if r.row >= 0 {
		return 0
	}
	r.row = ^r.row
	return int(d.reports[int(r.row)/d.numParts])
}

// ScanChunk is Step over a whole chunk with the state in a register: it
// calls emit(base+i) once per report fired at data[i].
func (r *DFARunner) ScanChunk(data []byte, base int, emit func(end int)) {
	d := r.d
	trans := d.trans
	row := int(r.row)
	for i := 0; i < len(data); i++ {
		// The hot loop makes no call, so its operands stay in registers.
		for ; i < len(data); i++ {
			row = int(trans[row+int(d.partition[data[i]])])
			if row < 0 {
				break
			}
		}
		if i == len(data) {
			break
		}
		row = ^row
		for k := d.reports[row/d.numParts]; k > 0; k-- {
			emit(base + i)
		}
	}
	r.row = int32(row)
}

// MatchEnds returns every offset where at least one report fires, with
// multiplicity (one entry per reporting state), matching NFA-side
// semantics used by the reference matcher.
func (d *DFA) MatchEnds(input []byte) []int {
	var out []int
	NewDFARunner(d).ScanChunk(input, 0, func(end int) { out = append(out, end) })
	return out
}
