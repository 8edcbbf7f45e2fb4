package automata

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/charclass"
)

// Union is the streaming DFA of the disjoint union of several NFAs, its
// members, built by the one capped subset construction (Determinize).
// Each state carries a report list — which members fire, each with the
// number of its final states active, the per-cycle report multiplicity of
// the per-pattern engines — so one table lookup per byte scans every
// member. Because the members are disjoint, the union's subset
// construction is the product of theirs, and its reports agree with
// theirs byte for byte. A Union is immutable and safe for any number of
// concurrent scans; a scan's state is a state number, 0 at the start of a
// stream.
type Union struct {
	partition [256]uint16
	numParts  int
	// trans is the transition table in the form of DFA.trans: a state is
	// named by the offset of its row, and a transition into a reporting
	// state stores the complement of the row.
	trans []int32
	// The reports of state s are reps[repOff[s]:repOff[s+1]], ascending in
	// member.
	repOff []uint32
	reps   []unionReport
}

// unionReport says that count final states of member member are active.
type unionReport struct {
	member, count int32
}

// BuildUnion runs the capped subset construction over the disjoint union
// of nfas, members 0 to len(nfas)-1. Every NFA must be unanchored and
// must not match the empty string; cap <= 0 means 4096. A construction
// past cap subset states fails with an error wrapping
// ErrStateCapExceeded.
func BuildUnion(nfas []*NFA, cap int) (*Union, error) {
	if len(nfas) == 0 {
		return nil, fmt.Errorf("automata: union of no automata")
	}
	if cap <= 0 {
		cap = 4096
	}
	total := 0
	for k, n := range nfas {
		if n.StartAnchored || n.EndAnchored {
			return nil, fmt.Errorf("automata: union member %d is anchored", k)
		}
		if n.MatchesEmpty {
			return nil, fmt.Errorf("automata: union member %d matches the empty string", k)
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
	sub, err := Determinize(classes, follow, initial, false, cap)
	if err != nil {
		return nil, fmt.Errorf("automata: union DFA of %d automata: %w", len(nfas), err)
	}
	if len(sub.Trans) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d states of %d alphabet classes overflow the table's row offsets",
			ErrStateCapExceeded, len(sub.Sets), sub.NumParts)
	}
	u := &Union{partition: sub.Partition, numParts: sub.NumParts, trans: sub.Trans, repOff: make([]uint32, 1, len(sub.Sets)+1)}
	for _, set := range sub.Sets {
		// Final states are numbered member by member, so each member's
		// run is contiguous and the list comes out ascending.
		set.And(final)
		for q := set.NextSet(0); q >= 0; q = set.NextSet(q + 1) {
			if n := len(u.reps); n > int(u.repOff[len(u.repOff)-1]) && u.reps[n-1].member == memberOf[q] {
				u.reps[n-1].count++
			} else {
				u.reps = append(u.reps, unionReport{member: memberOf[q], count: 1})
			}
		}
		u.repOff = append(u.repOff, uint32(len(u.reps)))
	}
	for i, next := range u.trans {
		row := next * int32(u.numParts)
		if u.repOff[next] != u.repOff[next+1] {
			row = ^row
		}
		u.trans[i] = row
	}
	return u, nil
}

// NumStates returns the DFA state count.
func (u *Union) NumStates() int { return len(u.repOff) - 1 }

// ScanFrom steps the union over data from state, calls emit(member,
// base+i) once per report at data[i], ascending in member, and returns
// the state it stops in.
func (u *Union) ScanFrom(state int32, data []byte, base int, emit func(member, end int)) int32 {
	row := state * int32(u.numParts)
	for i, b := range data {
		row = u.trans[int(row)+int(u.partition[b])]
		if row < 0 {
			row = ^row
			u.Emit(row/int32(u.numParts), base+i, emit)
		}
	}
	return row / int32(u.numParts)
}

// Step consumes one byte from state and returns the next state, leaving
// its reports to Emit.
func (u *Union) Step(state int32, b byte) int32 {
	row := u.trans[int(state)*u.numParts+int(u.partition[b])]
	if row < 0 {
		row = ^row
	}
	return row / int32(u.numParts)
}

// Emit calls emit(member, end) once per report of state, ascending in
// member.
func (u *Union) Emit(state int32, end int, emit func(member, end int)) {
	for _, r := range u.reps[u.repOff[state]:u.repOff[state+1]] {
		for c := r.count; c > 0; c-- {
			emit(int(r.member), end)
		}
	}
}
