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

// A stream's state in a DFA is the row offset of its current state in
// d.trans, 0 at the start of a stream; the scan functions take it and
// return it, so a caller keeps one int32 per DFA and stream.

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

// ScanChunk is Step over a whole chunk with the state in a register: it
// calls emit(base+i) once per report fired at data[i] and returns the row
// the chunk ends in.
func (d *DFA) ScanChunk(row32 int32, data []byte, base int, emit func(end int)) int32 {
	trans := d.trans
	row := int(row32)
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
	return int32(row)
}

// BlockLanes is the number of DFAs ScanBlock advances per input byte. Four
// chains hide most of a walk's load latency (3.9x one lane; eight measured
// 4.9x) and leave at most three patterns to a caller's single-lane tail,
// which at ten DFAs already costs as much as the blocks (EXPERIMENTS.md
// "pattern-parallel DFA blocks").
const BlockLanes = 4

// ScanBlock is ScanChunk for BlockLanes DFAs at once, the software form
// of every pattern seeing the input symbol in the same cycle (§3). One
// table walk is a chain of dependent loads that leaves the core waiting;
// this loop steps every lane on each byte, and the chains overlap. rows[l]
// is lane l's row before and after. It calls emit(l, base+i) once per
// report lane l fires at data[i], all of one byte's reports before the
// next byte's and within a byte in lane order, so the calls ascend in end.
func ScanBlock(dfas *[BlockLanes]*DFA, rows *[BlockLanes]int32, data []byte, base int, emit func(lane, end int)) {
	d0, d1, d2, d3 := dfas[0], dfas[1], dfas[2], dfas[3]
	t0, t1, t2, t3 := d0.trans, d1.trans, d2.trans, d3.trans
	r0, r1, r2, r3 := int(rows[0]), int(rows[1]), int(rows[2]), int(rows[3])
	for i := 0; i < len(data); i++ {
		for ; i < len(data); i++ {
			b := data[i]
			r0 = int(t0[r0+int(d0.partition[b])])
			r1 = int(t1[r1+int(d1.partition[b])])
			r2 = int(t2[r2+int(d2.partition[b])])
			r3 = int(t3[r3+int(d3.partition[b])])
			if r0|r1|r2|r3 < 0 {
				break
			}
		}
		if i == len(data) {
			break
		}
		r0 = d0.report(r0, 0, base+i, emit)
		r1 = d1.report(r1, 1, base+i, emit)
		r2 = d2.report(r2, 2, base+i, emit)
		r3 = d3.report(r3, 3, base+i, emit)
	}
	rows[0], rows[1], rows[2], rows[3] = int32(r0), int32(r1), int32(r2), int32(r3)
}

// report is the cold half of a block step: it emits the reports of a
// complemented row for the lane and returns the plain row.
func (d *DFA) report(row, lane, end int, emit func(lane, end int)) int {
	if row >= 0 {
		return row
	}
	row = ^row
	for k := d.reports[row/d.numParts]; k > 0; k-- {
		emit(lane, end)
	}
	return row
}
