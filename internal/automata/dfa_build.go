package automata

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/charclass"
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
	// escape holds the bytes that move the DFA off row 0 or report there.
	escape charclass.Class
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
	for b, part := range d.partition {
		if d.trans[part] != 0 {
			d.escape[b>>6] |= 1 << (b & 63)
		}
	}
	return d, nil
}

// A stream's state in a DFA is the row offset of its current state in
// d.trans, 0 at the start of a stream: one int32 per DFA and stream.

// Step consumes one byte from row and returns the next row and the number
// of reports fired.
func (d *DFA) Step(row int32, b byte) (int32, int) {
	row = d.trans[int(row)+int(d.partition[b])]
	if row >= 0 {
		return row, 0
	}
	row = ^row
	return row, int(d.reports[int(row)/d.numParts])
}

// WakeLoop scans a list of DFAs together, the software form of every
// pattern seeing the input symbol in the same cycle while only the active
// elements do work (§3.1). A DFA at rest in row 0 sleeps until a byte of
// its escape set comes and sleeps again when its row returns to 0, so a
// byte that wakes no DFA while none is awake costs one load. The DFAs are
// taken 64 at a time. A WakeLoop is read-only; the rows are the caller's.
type WakeLoop []wakeGroup

// wakeGroup is 64 DFAs of a WakeLoop, nil past the last: bit j of wake[b]
// is set when byte b wakes dfas[j].
type wakeGroup struct {
	wake [256]uint64
	dfas [64]*DFA
}

// NewWakeLoop ORs the escape sets BuildDFA recorded into the wake words of
// dfas, at a cost that follows the escape bytes, not the alphabet.
func NewWakeLoop(dfas []*DFA) WakeLoop {
	w := make(WakeLoop, (len(dfas)+63)/64)
	for j, d := range dfas {
		w[j/64].dfas[j%64] = d
		for k, word := range d.escape {
			for ; word != 0; word &= word - 1 {
				w[j/64].wake[k*64+bits.TrailingZeros64(word)] |= 1 << (j % 64)
			}
		}
	}
	return w
}

// Scan consumes data, the stream bytes from global offset base on, with
// rows[j] the row DFA j stopped in (0 at the start of a stream), and leaves
// each DFA's new row there. It calls emit(j, base+i) once per report DFA j
// fires at data[i]. Each 64 DFAs read the chunk once and report in one run,
// ascending in end with ties in DFA order; the runs follow DFA order.
func (w WakeLoop) Scan(rows []int32, data []byte, base int, emit func(j, end int)) {
	for g := range w {
		wake, dfas, first := &w[g].wake, &w[g].dfas, g*64
		rows := rows[first:min(len(rows), first+64)]
		// The rows live on the stack and the stepping loop makes no call, so
		// its operands stay in registers; it stops after a byte that fired,
		// leaving the DFAs that reported in fired for the emit loop.
		var local [64]int32
		var awake uint64
		for j, row := range rows {
			local[j] = row
			if row != 0 {
				awake |= 1 << j
			}
		}
		for i := 0; i < len(data); i++ {
			var fired uint64
			for ; i < len(data); i++ {
				b := data[i]
				step := awake | wake[b]
				if step == 0 {
					continue
				}
				for ; step != 0; step &= step - 1 {
					j := bits.TrailingZeros64(step) & 63 // & 63: no bounds checks
					d, bit := dfas[j], uint64(1)<<j
					row := d.trans[int(local[j])+int(d.partition[b])]
					if row < 0 {
						row = ^row
						fired |= bit
					}
					// A branch, not arithmetic, so the next byte need not wait.
					local[j] = row
					awake &^= bit
					if row != 0 {
						awake |= bit
					}
				}
				if fired != 0 {
					break
				}
			}
			for ; fired != 0; fired &= fired - 1 {
				j := bits.TrailingZeros64(fired) & 63
				for k := dfas[j].reports[int(local[j])/dfas[j].numParts]; k > 0; k-- {
					emit(first+j, base+i)
				}
			}
		}
		copy(rows, local[:])
	}
}
