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

// --- Union NFA engine -------------------------------------------------
//
// All NFA regexes of an array are merged into one automaton so a cycle
// costs O(words + active states) instead of O(regexes). Per-regex
// anchoring is preserved with two initial masks.

type nfaArrayEngine struct {
	states []automata.State
	// Successor representation is hybrid: short lists set bits directly;
	// dense states (e.g. the quadratic unfolds of σ{0,n}) OR a mask.
	follow       [][]int32
	followMask   []bitvec.Vector // non-nil for dense states
	labels       [256]bitvec.Vector
	initAlways   bitvec.Vector // unanchored initial states, enabled every cycle
	initStart    bitvec.Vector // ^-anchored initial states, offset 0 only
	finals       bitvec.Vector
	endAnchored  bitvec.Vector // finals that only report at end of input
	active       bitvec.Vector
	next         bitvec.Vector
	scratch      bitvec.Vector
	tileOf       []int // state -> tile
	regexOf      []int // state -> compiled regex index
	crossSucc    []bool
	pos          int
	tiles        int
	tileMatched  []int // per-cycle scratch
	totalColumns int
	// onReport, when set, receives the compiled regex index of every
	// match report (per reporting STE per cycle).
	onReport func(regex int)
}

func newNFAArrayEngine(res *compile.Result, plan *arch.ArrayPlan) (*nfaArrayEngine, error) {
	e := &nfaArrayEngine{tiles: len(plan.Tiles)}
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
	e.scratch = bitvec.New(n)
	e.initAlways = bitvec.New(n)
	e.initStart = bitvec.New(n)
	e.finals = bitvec.New(n)
	e.endAnchored = bitvec.New(n)
	e.follow = make([][]int32, n)
	e.followMask = make([]bitvec.Vector, n)
	e.tileOf = make([]int, n)
	e.regexOf = make([]int, n)
	e.crossSucc = make([]bool, n)
	e.states = make([]automata.State, n)
	const denseThreshold = 16
	for _, p := range parts {
		for q, s := range p.nfa.States {
			g := p.offset + q
			e.states[g] = s
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
	for g := range e.states {
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
		for g, s := range e.states {
			if s.Class.Contains(byte(c)) {
				v.Set(g)
			}
		}
		e.labels[c] = v
	}
	e.tileMatched = make([]int, e.tiles)
	for i := range plan.Tiles {
		e.totalColumns += plan.Tiles[i].Columns()
	}
	return e, nil
}

// step consumes one symbol. It returns the number of match reports, the
// number of matched (active) states, and the number of matched states
// with cross-tile successors. tileMatched is refreshed as a side effect;
// when onReport is set it receives the regex index of every report.
func (e *nfaArrayEngine) step(b byte, atEnd bool) (matches, matchedStates, crossActive int) {
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
	for i := range e.tileMatched {
		e.tileMatched[i] = 0
	}
	for q := e.active.NextSet(0); q >= 0; q = e.active.NextSet(q + 1) {
		e.tileMatched[e.tileOf[q]]++
		matchedStates++
		if e.crossSucc[q] {
			crossActive++
		}
		if e.finals.Get(q) && (!e.endAnchored.Get(q) || atEnd) {
			matches++
			if e.onReport != nil {
				e.onReport(e.regexOf[q])
			}
		}
	}
	return matches, matchedStates, crossActive
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
	bvLocs     [][][]bvLoc
	finalMasks []bitvec.Vector
	tiles      int
	onReport   func(regex int)
}

func newNBVAArrayEngine(res *compile.Result, plan *arch.ArrayPlan) (*nbvaArrayEngine, error) {
	e := &nbvaArrayEngine{tiles: len(plan.Tiles)}
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
		fm := bitvec.New(c.NBVA.NumStates())
		for _, q := range c.NBVA.Final {
			fm.Set(q)
		}
		e.finalMasks = append(e.finalMasks, fm)
	}
	return e, nil
}

// stepResult captures one NBVA array cycle.
type nbvaStep struct {
	matches     int
	tileMatched []int // active STEs per tile (state-matching activity)
	// bvTileCols counts, per tile, the columns of the bit vectors that
	// were actually updated this cycle — the bit-vector-processing phase
	// reads, routes and writes only those columns.
	bvTileCols []int
	anyBV      bool
}

func (e *nbvaArrayEngine) step(b byte, out *nbvaStep) {
	if out.tileMatched == nil {
		out.tileMatched = make([]int, e.tiles)
		out.bvTileCols = make([]int, e.tiles)
	}
	for i := range out.tileMatched {
		out.tileMatched[i] = 0
		out.bvTileCols[i] = 0
	}
	out.matches = 0
	out.anyBV = false
	for i, r := range e.runners {
		r.Step(b)
		out.matches += r.FinalsFired()
		if e.onReport != nil {
			for k := 0; k < r.FinalsFired(); k++ {
				e.onReport(e.regexes[i])
			}
		}
		m := r.MatchedRef()
		for q := m.NextSet(0); q >= 0; q = m.NextSet(q + 1) {
			for _, t := range e.stateTiles[i][q] {
				out.tileMatched[t]++
			}
		}
		for _, q := range r.BVUpdated() {
			out.anyBV = true
			for _, bl := range e.bvLocs[i][q] {
				out.bvTileCols[bl.tile] += bl.cols
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
	bins     []*lnfaBinEngine
	tiles    int
	onReport func(regex int)
}

func newLNFAArrayEngine(res *compile.Result, plan *arch.ArrayPlan) (*lnfaArrayEngine, error) {
	e := &lnfaArrayEngine{tiles: len(plan.Tiles)}
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

type lnfaStep struct {
	matches    int
	tileActive []int // active states per tile
	ringHops   int   // active states sitting at a region boundary
	// initTiles maps tile -> number of initial-state columns there (the
	// first state of every bin member leads in the bin's first tile and
	// is searched every cycle).
	initTiles   map[int]int
	camTiles    map[int]bool // active tiles that are CAM-mapped
	switchTiles map[int]bool
}

func (e *lnfaArrayEngine) step(b byte, out *lnfaStep) {
	if out.tileActive == nil {
		out.tileActive = make([]int, e.tiles)
		out.initTiles = map[int]int{}
		out.camTiles = map[int]bool{}
		out.switchTiles = map[int]bool{}
	}
	for i := range out.tileActive {
		out.tileActive[i] = 0
	}
	for k := range out.initTiles {
		delete(out.initTiles, k)
	}

	for k := range out.camTiles {
		delete(out.camTiles, k)
	}
	for k := range out.switchTiles {
		delete(out.switchTiles, k)
	}
	out.matches = 0
	out.ringHops = 0
	for _, be := range e.bins {
		fired := be.runner.Step(b)
		out.matches += len(fired)
		if e.onReport != nil {
			for _, pi := range fired {
				e.onReport(be.regexOf[pi])
			}
		}
		out.initTiles[be.initTile] += be.machine.NumPatterns()
		markActive := func(t int) {
			out.tileActive[t]++
			if be.bin.CAMMapped {
				out.camTiles[t] = true
			} else {
				out.switchTiles[t] = true
			}
		}
		// The bin-leading tile performs state matching every cycle.
		if be.bin.CAMMapped {
			out.camTiles[be.initTile] = true
		} else {
			out.switchTiles[be.initTile] = true
		}
		states := be.runner.StatesRef()
		for q := states.NextSet(0); q >= 0; q = states.NextSet(q + 1) {
			t := be.tileOfBit[q]
			markActive(t)
			// Local index within the member determines region position;
			// states at a region boundary hop the ring next cycle.
			local := q - patternStartFor(be.machine, q)
			if (be.bin.StartOffset+local+1)%be.regionSize == 0 {
				out.ringHops++
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
