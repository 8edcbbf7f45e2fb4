package sfa

import "repro/internal/automata"

// StateMap is the state-mapping function of one input chunk: At(s) is the
// DFA state reached from entry state s after consuming the chunk. It is
// stored as a dense vector over the live states — uint16 entries for
// machines under 64Ki states (the common case; the default cap is 4096),
// uint32 beyond — so a map costs NumStates×2 bytes and composes with a
// single gather pass.
type StateMap struct {
	u16 []uint16
	u32 []uint32
}

// newStateMap allocates an uninitialized map for a machine of n states.
func newStateMap(n int) *StateMap {
	if n <= 1<<16 {
		return &StateMap{u16: make([]uint16, n)}
	}
	return &StateMap{u32: make([]uint32, n)}
}

// At returns the exit state for entry state s.
func (f *StateMap) At(s int32) int32 {
	if f.u16 != nil {
		return int32(f.u16[s])
	}
	return int32(f.u32[s])
}

func (f *StateMap) set(i int, v int32) {
	if f.u16 != nil {
		f.u16[i] = uint16(v)
	} else {
		f.u32[i] = uint32(v)
	}
}

// MapChunk scans chunk with u from every state simultaneously and returns
// the chunk's state-mapping function together with the convergence
// offset k: the first chunk offset whose reports do not depend on the
// entry state (len(chunk) when the trajectories never fully merge).
// Reports at offsets >= k are emitted here, during the simultaneous
// pass, as (member, base+i); the caller replays only chunk[:k] with
// u.ScanFrom once the join has determined the true entry state. The
// emitted suffix reports plus a ScanFrom replay of the prefix reproduce
// a serial scan of the chunk from any entry state, report for report.
//
// Cost model: each byte steps every still-distinct trajectory, so the
// pass starts at NumStates lookups per byte and shrinks as trajectories
// merge; streaming DFAs re-inject their initial states every step, which
// makes full convergence the common case within a few dozen bytes. Past
// convergence the pass runs at serial-scan speed.
func MapChunk(u *automata.DFA, chunk []byte, base int, emit func(member, end int)) (*StateMap, int) {
	n := u.NumStates()
	// vals holds the distinct current states; slot[s] indexes entry state
	// s's trajectory in vals. Trajectories only ever merge, so the O(n)
	// slot rewrite below happens at most n-1 times per chunk.
	vals := make([]int32, n)
	slot := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i)
		slot[i] = int32(i)
	}
	mark := make([]uint32, n)    // state -> generation last produced
	markSlot := make([]int32, n) // state -> slot assigned this generation
	remap := make([]int32, n)    // old slot -> new slot for one byte's merges
	var gen uint32

	i := 0
	for ; i < len(chunk) && len(vals) > 1; i++ {
		b := chunk[i]
		gen++
		merged := false
		w := 0
		for k := 0; k < len(vals); k++ {
			v := u.Step(vals[k], b)
			if mark[v] == gen {
				remap[k] = markSlot[v]
				merged = true
				continue
			}
			mark[v] = gen
			markSlot[v] = int32(w)
			remap[k] = int32(w)
			vals[w] = v
			w++
		}
		vals = vals[:w]
		if merged {
			for s := range slot {
				slot[s] = remap[slot[s]]
			}
		}
	}

	conv := len(chunk)
	if len(vals) == 1 && len(chunk) > 0 {
		// Entry-independent from here on. For n > 1 the merge happened at
		// the step that consumed chunk[i-1], whose reports the loop above
		// skipped (it could not know the step would converge) — back up
		// and emit them. A single-state machine is trivially converged at
		// offset 0 before any step.
		s := vals[0]
		if n > 1 {
			conv = i - 1
			u.Emit(s, base+conv, emit)
		} else {
			conv = 0
			s = u.Step(s, chunk[0])
			u.Emit(s, base, emit)
		}
		vals[0] = u.ScanFrom(s, chunk[conv+1:], base+conv+1, emit)
	}

	f := newStateMap(n)
	for st := 0; st < n; st++ {
		f.set(st, vals[slot[st]])
	}
	return f, conv
}
