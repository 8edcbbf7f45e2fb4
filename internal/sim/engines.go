package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/compile"
	"repro/internal/nbva"
	"repro/internal/shiftand"
)

// An arrayEngine steps the functional dataflow of one placed array, one
// input symbol per call, and fills the cycle's activity record; the
// energy models, the trace and the stall model read only that record.
type arrayEngine interface {
	step(b byte, atEnd bool, a *activity)
}

// activity is what one array did in one cycle. Per-tile slices are
// indexed by tile within the array; a field a mode does not produce
// stays zero.
type activity struct {
	fired       []int // compiled regex index of every match report
	tileActive  []int // active STEs per tile
	crossActive int   // active NFA states with a cross-tile successor
	// bvCols counts, per tile, the columns of the bit vectors updated
	// this cycle — the bit-vector-processing phase reads, routes and
	// writes only those columns; bvPhase says whether any updated.
	bvCols  []int
	bvPhase bool
	// LNFA: states at a region boundary (they hop the ring next cycle),
	// initial-state columns per tile (the first state of every bin
	// member, searched every cycle) and the active tiles by matching
	// structure.
	ringHops    int
	initCols    []int
	camTiles    []bool
	switchTiles []bool
}

func newArrayEngine(res *compile.Result, plan *arch.ArrayPlan) (arrayEngine, error) {
	switch plan.Mode {
	case arch.ModeNFA:
		return newNFAArrayEngine(res, plan)
	case arch.ModeNBVA:
		return newNBVAArrayEngine(res, plan)
	case arch.ModeLNFA:
		return newLNFAArrayEngine(res, plan)
	}
	return nil, fmt.Errorf("sim: unknown mode %v", plan.Mode)
}

// runArray steps one array's engine over the input and hands every
// cycle's activity to visit, with the offset of the symbol consumed.
func runArray(res *compile.Result, plan *arch.ArrayPlan, input []byte, visit func(k int, a *activity)) error {
	e, err := newArrayEngine(res, plan)
	if err != nil {
		return err
	}
	n := len(plan.Tiles)
	a := &activity{
		tileActive: make([]int, n), bvCols: make([]int, n), initCols: make([]int, n),
		camTiles: make([]bool, n), switchTiles: make([]bool, n),
	}
	for k, b := range input {
		a.fired = a.fired[:0]
		clear(a.tileActive)
		a.crossActive = 0
		clear(a.bvCols)
		a.bvPhase = false
		a.ringHops = 0
		clear(a.initCols)
		clear(a.camTiles)
		clear(a.switchTiles)
		e.step(b, k == len(input)-1, a)
		visit(k, a)
	}
	return nil
}

// --- Union NFA engine -------------------------------------------------
//
// All NFA regexes of an array are merged into one automaton so a cycle
// costs O(words + active states) instead of O(regexes). Per-regex
// anchoring is preserved with two initial masks.

type nfaArrayEngine struct {
	// Successor representation is hybrid: short lists set bits directly;
	// dense states (e.g. the quadratic unfolds of σ{0,n}) OR a mask.
	follow      [][]int32
	followMask  []bitvec.Vector // non-nil for dense states
	labels      [256]bitvec.Vector
	initAlways  bitvec.Vector // unanchored initial states, enabled every cycle
	initStart   bitvec.Vector // ^-anchored initial states, offset 0 only
	finals      bitvec.Vector
	endAnchored bitvec.Vector // finals that only report at end of input
	active      bitvec.Vector
	next        bitvec.Vector
	tileOf      []int // state -> tile
	regexOf     []int // state -> compiled regex index
	crossSucc   []bool
	pos         int
}

func newNFAArrayEngine(res *compile.Result, plan *arch.ArrayPlan) (*nfaArrayEngine, error) {
	e := &nfaArrayEngine{}
	offset := 0
	type pending struct {
		nfa    *automata.NFA
		regex  int
		offset int
	}
	var parts []pending
	for _, ri := range plan.Regexes {
		c := &res.Regexes[ri]
		if c.NFA == nil {
			return nil, fmt.Errorf("sim: regex %d has no NFA payload", ri)
		}
		parts = append(parts, pending{nfa: c.NFA, regex: ri, offset: offset})
		offset += c.NFA.NumStates()
	}
	n := offset
	e.active = bitvec.New(n)
	e.next = bitvec.New(n)
	e.initAlways = bitvec.New(n)
	e.initStart = bitvec.New(n)
	e.finals = bitvec.New(n)
	e.endAnchored = bitvec.New(n)
	e.follow = make([][]int32, n)
	e.followMask = make([]bitvec.Vector, n)
	e.tileOf = make([]int, n)
	e.regexOf = make([]int, n)
	e.crossSucc = make([]bool, n)
	states := make([]automata.State, n)
	const denseThreshold = 16
	for _, p := range parts {
		for q, s := range p.nfa.States {
			g := p.offset + q
			states[g] = s
			if len(s.Follow) > denseThreshold {
				m := bitvec.New(n)
				for _, succ := range s.Follow {
					m.Set(p.offset + succ)
				}
				e.followMask[g] = m
			} else {
				f := make([]int32, len(s.Follow))
				for i, succ := range s.Follow {
					f[i] = int32(p.offset + succ)
				}
				e.follow[g] = f
			}
			tile, ok := plan.TileOf(arch.StateRef{Regex: p.regex, State: q})
			if !ok {
				return nil, fmt.Errorf("sim: no tile for regex %d state %d", p.regex, q)
			}
			e.tileOf[g] = tile
			e.regexOf[g] = p.regex
		}
		for _, q := range p.nfa.Initial {
			if p.nfa.StartAnchored {
				e.initStart.Set(p.offset + q)
			} else {
				e.initAlways.Set(p.offset + q)
			}
		}
		for _, q := range p.nfa.Final {
			e.finals.Set(p.offset + q)
			if p.nfa.EndAnchored {
				e.endAnchored.Set(p.offset + q)
			}
		}
	}
	// Cross-tile successor flags (global switch traffic).
	for g := range states {
		if m := e.followMask[g]; m.Len() > 0 {
			for q := m.NextSet(0); q >= 0; q = m.NextSet(q + 1) {
				if e.tileOf[q] != e.tileOf[g] {
					e.crossSucc[g] = true
					break
				}
			}
			continue
		}
		for _, q := range e.follow[g] {
			if e.tileOf[q] != e.tileOf[g] {
				e.crossSucc[g] = true
				break
			}
		}
	}
	for c := 0; c < 256; c++ {
		v := bitvec.New(n)
		for g, s := range states {
			if s.Class.Contains(byte(c)) {
				v.Set(g)
			}
		}
		e.labels[c] = v
	}
	return e, nil
}

func (e *nfaArrayEngine) step(b byte, atEnd bool, a *activity) {
	e.next.Reset()
	for q := e.active.NextSet(0); q >= 0; q = e.active.NextSet(q + 1) {
		if m := e.followMask[q]; m.Len() > 0 {
			e.next.Or(m)
			continue
		}
		for _, s := range e.follow[q] {
			e.next.Set(int(s))
		}
	}
	e.next.Or(e.initAlways)
	if e.pos == 0 {
		e.next.Or(e.initStart)
	}
	e.next.And(e.labels[b])
	e.active, e.next = e.next, e.active
	e.pos++
	for q := e.active.NextSet(0); q >= 0; q = e.active.NextSet(q + 1) {
		a.tileActive[e.tileOf[q]]++
		if e.crossSucc[q] {
			a.crossActive++
		}
		if e.finals.Get(q) && (!e.endAnchored.Get(q) || atEnd) {
			a.fired = append(a.fired, e.regexOf[q])
		}
	}
}

// --- NBVA array engine ------------------------------------------------

// bvLoc locates one placed chunk of a bit vector: the tile and the
// fraction of that tile's columns its width occupies.
type bvLoc struct {
	tile int
	cols int
}

type nbvaArrayEngine struct {
	runners []*nbva.Runner
	regexes []int
	// stateTiles maps (runner index, machine state) to the tiles holding
	// that state's CC / BV columns (splits span several tiles).
	stateTiles [][][]int
	// bvLocs maps (runner index, machine state) to the placed BV chunks,
	// for charging only the triggered bit vector's columns during the
	// bit-vector-processing phase.
	bvLocs [][][]bvLoc
	// endAnchored marks runners whose reports count only at end of input.
	endAnchored []bool
}

func newNBVAArrayEngine(res *compile.Result, plan *arch.ArrayPlan) (*nbvaArrayEngine, error) {
	e := &nbvaArrayEngine{}
	// Pre-index BV allocations per (regex, state).
	bvTiles := map[arch.StateRef][]bvLoc{}
	for ti := range plan.Tiles {
		for _, bv := range plan.Tiles[ti].BVs {
			ref := arch.StateRef{Regex: bv.Regex, State: bv.STE}
			bvTiles[ref] = append(bvTiles[ref], bvLoc{tile: ti, cols: bv.Width})
		}
	}
	for _, ri := range plan.Regexes {
		c := &res.Regexes[ri]
		if c.NBVA == nil {
			return nil, fmt.Errorf("sim: regex %d has no NBVA payload", ri)
		}
		r := nbva.NewRunner(c.NBVA)
		e.runners = append(e.runners, r)
		e.regexes = append(e.regexes, ri)
		tiles := make([][]int, c.NBVA.NumStates())
		locs := make([][]bvLoc, c.NBVA.NumStates())
		for q := range tiles {
			ref := arch.StateRef{Regex: ri, State: q}
			if bls := bvTiles[ref]; len(bls) > 0 {
				locs[q] = bls
				for _, bl := range bls {
					tiles[q] = append(tiles[q], bl.tile)
				}
			} else if t, ok := plan.TileOf(ref); ok {
				tiles[q] = []int{t}
			} else {
				return nil, fmt.Errorf("sim: no tile for NBVA regex %d state %d", ri, q)
			}
		}
		e.stateTiles = append(e.stateTiles, tiles)
		e.bvLocs = append(e.bvLocs, locs)
		e.endAnchored = append(e.endAnchored, c.NBVA.EndAnchored)
	}
	return e, nil
}

func (e *nbvaArrayEngine) step(b byte, atEnd bool, a *activity) {
	for i, r := range e.runners {
		r.Step(b)
		if !e.endAnchored[i] || atEnd {
			for k := 0; k < r.FinalsFired(); k++ {
				a.fired = append(a.fired, e.regexes[i])
			}
		}
		m := r.MatchedRef()
		for q := m.NextSet(0); q >= 0; q = m.NextSet(q + 1) {
			for _, t := range e.stateTiles[i][q] {
				a.tileActive[t]++
			}
		}
		for _, q := range r.BVUpdated() {
			a.bvPhase = true
			for _, bl := range e.bvLocs[i][q] {
				a.bvCols[bl.tile] += bl.cols
			}
		}
	}
}

// --- LNFA array engine ------------------------------------------------

type lnfaBinEngine struct {
	machine    *shiftand.Machine
	runner     *shiftand.Runner
	bin        *arch.BinPlan
	tileOfBit  []int // packed state -> array tile index
	regexOf    []int // machine pattern index -> compiled regex index
	initTile   int
	regionSize int
}

type lnfaArrayEngine struct {
	bins []*lnfaBinEngine
}

func newLNFAArrayEngine(res *compile.Result, plan *arch.ArrayPlan) (*lnfaArrayEngine, error) {
	e := &lnfaArrayEngine{}
	for bi := range plan.Bins {
		bin := &plan.Bins[bi]
		var pats []shiftand.Pattern
		var tileOfBit []int
		var regexOf []int
		region := bin.RegionSize()
		for _, ref := range bin.Seqs {
			if ref == arch.Hole {
				continue
			}
			c := &res.Regexes[ref[0]]
			if ref[1] >= len(c.Seqs) {
				return nil, fmt.Errorf("sim: bad sequence ref %v", ref)
			}
			seq := c.Seqs[ref[1]]
			pats = append(pats, shiftand.Pattern(seq.Classes))
			regexOf = append(regexOf, ref[0])
			for j := range seq.Classes {
				ti := (bin.StartOffset + j) / region
				if ti >= len(bin.Tiles) {
					ti = len(bin.Tiles) - 1
				}
				tileOfBit = append(tileOfBit, bin.Tiles[ti])
			}
		}
		if len(pats) == 0 {
			continue // every member is a hole
		}
		m, err := shiftand.New(pats)
		if err != nil {
			return nil, err
		}
		e.bins = append(e.bins, &lnfaBinEngine{
			machine:    m,
			runner:     shiftand.NewRunner(m),
			bin:        bin,
			tileOfBit:  tileOfBit,
			regexOf:    regexOf,
			initTile:   bin.Tiles[0],
			regionSize: region,
		})
	}
	return e, nil
}

// step runs every bin one symbol. LNFA patterns carry no anchors, so
// atEnd changes nothing.
func (e *lnfaArrayEngine) step(b byte, _ bool, a *activity) {
	for _, be := range e.bins {
		for _, pi := range be.runner.Step(b) {
			a.fired = append(a.fired, be.regexOf[pi])
		}
		a.initCols[be.initTile] += be.machine.NumPatterns()
		// The bin-leading tile performs state matching every cycle.
		tiles := a.switchTiles
		if be.bin.CAMMapped {
			tiles = a.camTiles
		}
		tiles[be.initTile] = true
		states := be.runner.StatesRef()
		for q := states.NextSet(0); q >= 0; q = states.NextSet(q + 1) {
			t := be.tileOfBit[q]
			a.tileActive[t]++
			tiles[t] = true
			// Local index within the member determines region position;
			// states at a region boundary hop the ring next cycle.
			local := q - patternStartFor(be.machine, q)
			if (be.bin.StartOffset+local+1)%be.regionSize == 0 {
				a.ringHops++
			}
		}
	}
}

// patternStartFor finds the packed start offset of the pattern containing
// bit q via binary search over pattern starts.
func patternStartFor(m *shiftand.Machine, q int) int {
	lo, hi := 0, m.NumPatterns()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.PatternStart(mid) <= q {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return m.PatternStart(lo)
}
