package automata

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/charclass"
)

// DFA is a materialized streaming DFA, built by the one capped subset
// construction over the disjoint union of its members (BuildDFA). §2.1
// explains why hardware avoids DFAs — the state count can be exponential
// — but for small automata a DFA is the fastest software matcher (one
// table lookup per byte), which is how Hyperscan-class engines execute
// small patterns. Each state carries a report list — which members fire,
// each with the number of its final states active, the per-cycle report
// count of the hardware — so one DFA scans one pattern or many. Because
// the members are disjoint, the union's subset construction is the
// product of theirs, and its reports agree with theirs byte for byte. A
// DFA is immutable and safe for any number of concurrent scans; a scan's
// state is a state number, 0 at the start of a stream.
type DFA struct {
	// partition maps each input byte to its alphabet-equivalence class.
	partition [256]uint16
	// trans is the transition table in the form the scan loops want it. A
	// state is named by the offset of its row, state*numParts, so a step
	// is one add and one load: trans[row+partition] is the next row. A
	// transition into a reporting state stores the complement of the row,
	// which tells the loop to look at reports without loading them per byte.
	trans    []int32
	numParts int
	// The reports of state s are reps[repOff[s]:repOff[s+1]], ascending in
	// member.
	repOff []uint32
	reps   []report
	// EndAnchored is the one member's: a report counts only at the
	// stream's last byte, which the scanner knows and the DFA does not.
	EndAnchored bool
	// rest holds the rows the DFA sleeps in, row 0 and its busiest
	// self-loop (row 0 again if none); a start-anchored DFA's start row
	// loops on no byte, and its busiest is the dead row, which loops on
	// every byte and so never wakes. escape[k] holds the bytes that leave
	// rest[k] or report there, pair[k] the bytes that, right after one of
	// them, reach another row than they do from rest[k] (all, if one reports).
	rest   [2]int32
	escape [2]charclass.Class
	pair   [2]charclass.Class
}

// report says that count final states of member member are active.
type report struct {
	member, count int32
}

// BuildDFA materializes the streaming DFA of the disjoint union of nfas,
// members 0 to len(nfas)-1, failing with an error wrapping
// ErrStateCapExceeded beyond cap subset states (cap <= 0 means 4096). A
// single member may be anchored: start-anchored, it injects its initial
// states from state 0 only; end-anchored, the DFA records EndAnchored. A
// union of two or more refuses anchored members. Like Runner.Step, the DFA
// never reports the empty match of a nullable member.
func BuildDFA(cap int, nfas ...*NFA) (*DFA, error) {
	if len(nfas) == 0 {
		return nil, fmt.Errorf("automata: DFA of no automata")
	}
	if cap <= 0 {
		cap = 4096
	}
	total := 0
	for k, n := range nfas {
		if len(nfas) > 1 && (n.StartAnchored || n.EndAnchored) {
			return nil, fmt.Errorf("automata: union member %d is anchored", k)
		}
		total += len(n.States)
	}
	classes := make([]charclass.Class, 0, total)
	follow := make([]bitvec.Vector, total)
	bitvec.NewSlab(follow, total)
	initial, final := bitvec.New(total), bitvec.New(total)
	memberOf := make([]int32, total) // per state, the member it is of
	base := 0
	for k, n := range nfas {
		for q, s := range n.States {
			classes = append(classes, s.Class)
			for _, succ := range s.Follow {
				follow[base+q].Set(base + succ)
			}
			memberOf[base+q] = int32(k)
		}
		for _, q := range n.Initial {
			initial.Set(base + q)
		}
		for _, q := range n.Final {
			final.Set(base + q)
		}
		base += len(n.States)
	}
	sub, err := determinize(classes, follow, initial, nfas[0].StartAnchored, cap)
	if err != nil {
		return nil, fmt.Errorf("automata: DFA of %d automata: %w", len(nfas), err)
	}
	if len(sub.trans) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d states of %d alphabet classes overflow the table's row offsets",
			ErrStateCapExceeded, len(sub.sets), sub.numParts)
	}
	d := &DFA{partition: sub.partition, numParts: sub.numParts, trans: sub.trans, EndAnchored: nfas[0].EndAnchored,
		repOff: make([]uint32, 1, len(sub.sets)+1)}
	for _, set := range sub.sets {
		// Final states are numbered member by member, so each member's
		// run is contiguous and the list comes out ascending.
		set.And(final)
		for q := set.NextSet(0); q >= 0; q = set.NextSet(q + 1) {
			if n := len(d.reps); n > int(d.repOff[len(d.repOff)-1]) && d.reps[n-1].member == memberOf[q] {
				d.reps[n-1].count++
			} else {
				d.reps = append(d.reps, report{member: memberOf[q], count: 1})
			}
		}
		d.repOff = append(d.repOff, uint32(len(d.reps)))
	}
	for i, next := range d.trans {
		row := next * int32(d.numParts)
		if d.repOff[next] != d.repOff[next+1] {
			row = ^row
		}
		d.trans[i] = row
	}
	d.rest[1] = d.busiestLoop()
	for k, rest := range d.rest {
		var escape, pair charclass.Class // over alphabet classes, then bytes
		for c, next := range d.trans[rest : int(rest)+d.numParts] {
			if next == rest {
				continue
			}
			escape.Add(byte(c))
			if next < 0 {
				pair = charclass.Any()
				continue
			}
			for x, to := range d.trans[next : int(next)+d.numParts] {
				if to != d.trans[int(rest)+x] {
					pair.Add(byte(x))
				}
			}
		}
		for b, part := range d.partition {
			d.escape[k][b>>6] |= escape[part>>6] >> (part & 63) & 1 << (b & 63)
			d.pair[k][b>>6] |= pair[part>>6] >> (part & 63) & 1 << (b & 63)
		}
	}
	return d, nil
}

// busiestLoop returns the non-zero row with the most bytes that loop to
// it without reporting, or 0 when no row has one.
func (d *DFA) busiestLoop() int32 {
	var size [256]int
	for _, part := range d.partition {
		size[part]++
	}
	best, most := int32(0), 0
	for row := d.numParts; row < len(d.trans); row += d.numParts {
		loops := 0
		for c, next := range d.trans[row : row+d.numParts] {
			if next == int32(row) {
				loops += size[c]
			}
		}
		if loops > most {
			best, most = int32(row), loops
		}
	}
	return best
}

// NumStates returns the DFA state count.
func (d *DFA) NumStates() int { return len(d.repOff) - 1 }

// ScanFrom steps the DFA over data from state, calls emit(member, base+i)
// once per report at data[i], ascending in member, and returns the state
// it stops in.
func (d *DFA) ScanFrom(state int32, data []byte, base int, emit func(member, end int)) int32 {
	row := state * int32(d.numParts)
	for i, b := range data {
		row = d.trans[int(row)+int(d.partition[b])]
		if row < 0 {
			row = ^row
			d.Emit(row/int32(d.numParts), base+i, emit)
		}
	}
	return row / int32(d.numParts)
}

// Step consumes one byte from state and returns the next state, leaving
// its reports to Emit.
func (d *DFA) Step(state int32, b byte) int32 {
	row := d.trans[int(state)*d.numParts+int(d.partition[b])]
	if row < 0 {
		row = ^row
	}
	return row / int32(d.numParts)
}

// fires returns how many reports the state at row fires, of any member.
func (d *DFA) fires(row int32) int {
	s := int(row) / d.numParts
	n := 0
	for _, r := range d.reps[d.repOff[s]:d.repOff[s+1]] {
		n += int(r.count)
	}
	return n
}

// Emit calls emit(member, end) once per report of state, ascending in
// member.
func (d *DFA) Emit(state int32, end int, emit func(member, end int)) {
	for _, r := range d.reps[d.repOff[state]:d.repOff[state+1]] {
		for c := r.count; c > 0; c-- {
			emit(int(r.member), end)
		}
	}
}

// WakeLoop scans a list of DFAs together, the software form of every
// pattern seeing the input symbol in the same cycle while only the active
// elements do work (§3.1). A DFA in a rest row sleeps until a byte of the
// row's escape set comes before a byte of its pair set, and sleeps again
// in either rest row. The DFAs are taken 64 at a time; while all 64 sleep,
// the loop reads only the data and the pair test's words, and steps no
// DFA until a pair wakes one. A WakeLoop is read-only; the rows are the
// caller's.
type WakeLoop []wakeGroup

// wakeGroup is 64 DFAs of a WakeLoop, nil past the last: bit j of
// wake[k][b] is set when byte b escapes rest row k of dfas[j], and of
// pair[k][b] when b is in that row's pair set.
type wakeGroup struct {
	wake, pair [2][256]uint64
	dfas       [64]*DFA
}

// NewWakeLoop ORs the escape and pair sets of dfas into wake and pair
// words, at a cost that follows the bytes in the sets, not the alphabet.
func NewWakeLoop(dfas []*DFA) WakeLoop {
	w := make(WakeLoop, (len(dfas)+63)/64)
	for j, d := range dfas {
		g, bit := &w[j/64], uint64(1)<<(j%64)
		g.dfas[j%64] = d
		for k := range d.rest {
			orBytes(&g.wake[k], d.escape[k], bit)
			orBytes(&g.pair[k], d.pair[k], bit)
		}
	}
	return w
}

// asleep runs the pair test alone while every DFA of g sleeps, rest1
// marking those in rest row 1: it returns how many bytes from data's first
// on stay asleep, stopping at the first whose pair with the next wakes a
// DFA or at the last, which has no successor to test. It stays out of
// line so that the loop holds its few operands in registers: inlined into
// Scan, it kept its index and rest1 on the stack.
//
//go:noinline
func (g *wakeGroup) asleep(data []byte, rest1 uint64) int {
	n := 0
	if len(data) > 0 {
		b := data[0]
		for _, next := range data[1:] {
			if g.wake[0][b]&g.pair[0][next]&^rest1|g.wake[1][b]&g.pair[1][next]&rest1 != 0 {
				break
			}
			b = next
			n++
		}
	}
	return n
}

// orBytes sets bit in the word of every byte of set.
func orBytes(words *[256]uint64, set charclass.Class, bit uint64) {
	for k, word := range set {
		for ; word != 0; word &= word - 1 {
			words[k*64+bits.TrailingZeros64(word)] |= bit
		}
	}
}

// Scan consumes data, the stream bytes from global offset base on, with
// rows[j] the row DFA j stopped in — the offset of its state's row in the
// table, 0 at the start of a stream — and leaves each DFA's new row there.
// It calls emit(j, base+i) once per report DFA j fires at data[i], of any
// member. Each 64 DFAs read the chunk once and report in one run,
// ascending in end with ties in DFA order; the runs follow DFA order.
// A sleeping DFA skips an escape byte before a byte outside the pair set
// (both steps end where one from the rest row does) but not a chunk's last.
func (w WakeLoop) Scan(rows []int32, data []byte, base int, emit func(j, end int)) {
	for g := range w {
		wake, pair, dfas, first := &w[g].wake, &w[g].pair, &w[g].dfas, g*64
		rows := rows[first:min(len(rows), first+64)]
		// The rows live on the stack and the stepping loop makes no call, so
		// its operands stay in registers; it stops after a byte that fired,
		// leaving the DFAs that reported in fired for the emit loop. A DFA
		// joins rest1 once stepped into rest[1]; one asleep outside is in row 0.
		var local [64]int32
		var awake, rest1 uint64
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
				pair0, pair1 := ^uint64(0), ^uint64(0)
				if i+1 < len(data) {
					next := data[i+1]
					pair0, pair1 = pair[0][next], pair[1][next]
				}
				step := awake | wake[0][b]&pair0&^rest1 | wake[1][b]&pair1&rest1
				if step == 0 {
					// All asleep (step holds awake): the pair test alone
					// runs up to the next byte that can wake a DFA.
					i += w[g].asleep(data[i+1:], rest1)
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
					// Branches, not arithmetic, so the next byte need not wait.
					local[j] = row
					awake, rest1 = awake&^bit, rest1&^bit
					if row == d.rest[1] {
						rest1 |= bit
					} else if row != 0 {
						awake |= bit
					}
				}
				if fired != 0 {
					break
				}
			}
			for ; fired != 0; fired &= fired - 1 {
				j := bits.TrailingZeros64(fired) & 63
				for k := dfas[j].fires(local[j]); k > 0; k-- {
					emit(first+j, base+i)
				}
			}
		}
		copy(rows, local[:])
	}
}
