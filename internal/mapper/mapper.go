// Package mapper places compiled regexes onto RAP arrays and tiles (§4.3):
// a greedy packing algorithm for NFA and NBVA regexes (with the §4.1
// splitting of wide bit vectors across tiles) and the LNFA binning
// procedure of §3.2 / §4.3 (sort by size, largest bin that fits, halve on
// overflow). The output placement drives both area accounting and the
// per-cycle activity model of the simulator.
//
// A placement is also the starting point of the next one: Remap places an
// updated ruleset so that every regex it shares with the served one keeps
// its place, and the tiles nothing moved in need no reload.
package mapper

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/compile"
	"repro/internal/nbva"
)

// Packing selects the greedy order for NFA/NBVA placement.
type Packing int

const (
	// PackAsGiven places regexes in input order (the paper's greedy
	// mapper).
	PackAsGiven Packing = iota
	// PackDecreasing sorts regexes by size descending first (first-fit
	// decreasing), which reduces end-of-array fragmentation.
	PackDecreasing
)

// Options tune the mapping; Depth and BinSize are the two user-controlled
// RAP parameters explored in §5.3, Packing is this repository's
// fragmentation ablation.
type Options struct {
	// Depth is the BV depth for NBVA arrays (rows per bit-vector column).
	// Must be one of arch.BVDepths. Default 8.
	Depth int
	// BinSize is the maximum number of LNFAs per bin. Default 8.
	BinSize int
	// Packing is the greedy placement order. Default PackAsGiven.
	Packing Packing
}

func (o *Options) setDefaults() {
	if o.Depth == 0 {
		o.Depth = 8
	}
	if o.BinSize == 0 {
		o.BinSize = 8
	}
}

// ErrUnmappable is returned when a regex cannot be placed within the
// hardware constraints.
var ErrUnmappable = errors.New("mapper: regex cannot be mapped")

// maxHoleShare bounds fragmentation: Remap packs cold once the free
// capacity of the used tiles — free columns and slots, and bin holes —
// passes this share of their capacity plus one tile per array, the slack a
// cold pack leaves too (7–18 % of capacity on the seven datasets).
// FuzzRemap holds a Remap placement to (a cold pack's tiles + its arrays) /
// (1 - maxHoleShare) tiles.
const maxHoleShare = 0.25

// Map places every successfully compiled regex. Arrays are homogeneous in
// mode; regexes never span arrays (§3.3: no inter-array communication).
// It is Remap with no served placement.
func Map(res *compile.Result, opts Options) (*arch.Placement, error) {
	p, _, err := Remap(nil, nil, res, opts)
	return p, err
}

// Remap places res as the successor of prev, the served placement of
// prevRes (placed under the same opts). A regex compile.Recompile took
// from prevRes (res.From), sharing its machine, keeps its array and
// its place there: its NFA slots, its NBVA units' tiles, its LNFA bin
// member. The regexes prevRes alone holds leave holes; new regexes fill
// holes first-fit, then the arrays' unused tiles. Every tile neither
// loses nor gains a regex is marked in ArrayPlan.Reused.
//
// Remap packs cold, as Map does and reporting repacked, when a new regex
// would need a new array, when an array is left empty, or when holes pass
// maxHoleShare. A nil prev or prevRes is the cold pack, not a repack.
func Remap(prev *arch.Placement, prevRes, res *compile.Result, opts Options) (p *arch.Placement, repacked bool, err error) {
	opts.setDefaults()
	if opts.Depth > arch.CAMRows {
		return nil, false, fmt.Errorf("mapper: depth %d exceeds CAM rows %d", opts.Depth, arch.CAMRows)
	}
	if opts.BinSize > arch.MaxBinSize {
		return nil, false, fmt.Errorf("mapper: bin size %d exceeds %d", opts.BinSize, arch.MaxBinSize)
	}
	if prev != nil && prevRes != nil {
		if p = remap(prev, prevRes, res, opts); p != nil {
			return p, false, nil
		}
		repacked = true
	}
	p = &arch.Placement{}
	nfas, nbvas := res.ByMode(compile.ModeNFA), res.ByMode(compile.ModeNBVA)
	if opts.Packing == PackDecreasing {
		nfas, nbvas = sortedBySize(nfas), sortedBySize(nbvas)
	}
	if err := mapNFA(p, nfas); err != nil {
		return nil, repacked, err
	}
	if err := mapNBVA(p, nbvas, opts.Depth); err != nil {
		return nil, repacked, err
	}
	if err := mapLNFA(p, res.ByMode(compile.ModeLNFA), opts.BinSize); err != nil {
		return nil, repacked, err
	}
	return p, repacked, nil
}

// sortedBySize returns the regexes ordered by state count descending
// (stable, so equal sizes keep input order).
func sortedBySize(regexes []*compile.Compiled) []*compile.Compiled {
	out := append([]*compile.Compiled(nil), regexes...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].STEs > out[j].STEs })
	return out
}

// openArray appends an empty array of the mode to p and returns it.
func openArray(p *arch.Placement, mode arch.Mode, depth int) *arch.ArrayPlan {
	p.Arrays = append(p.Arrays, arch.ArrayPlan{Mode: mode, Tiles: make([]arch.TilePlan, arch.TilesPerArray), Depth: depth})
	return &p.Arrays[len(p.Arrays)-1]
}

// --- Remap ---

// sameMachine reports whether a regex holds b's automaton, as one
// compile.Recompile takes from the previous generation does.
func sameMachine(a, b *compile.Compiled) bool {
	return a.NFA == b.NFA && a.NBVA == b.NBVA && len(a.Seqs) == len(b.Seqs) && (len(a.Seqs) == 0 || &a.Seqs[0] == &b.Seqs[0])
}

// allTiles marks every tile of an array and its global switch.
const allTiles = arch.GlobalSwitchBit<<1 - 1

// remap is Remap's placement-stable path; nil sends Remap to the cold pack.
func remap(prev *arch.Placement, prevRes, res *compile.Result, opts Options) *arch.Placement {
	// newOf maps prevRes's regexes to the res regex taken from each, -1 for
	// one removed; a second res regex taken from the same one is new.
	newOf := make([]int, len(prevRes.Regexes))
	for j := range newOf {
		newOf[j] = -1
	}
	kept := make([]bool, len(res.Regexes))
	for i, j := range res.From {
		if j >= 0 && j < len(newOf) && newOf[j] < 0 && sameMachine(&res.Regexes[i], &prevRes.Regexes[j]) {
			newOf[j], kept[i] = i, true
		}
	}
	// The served arrays, renumbered, with what prevRes alone held taken
	// out. dirty marks, per array, the tiles whose occupants change and the
	// global switch when a regex routed through it comes or goes. An array
	// or tile whose every regex keeps its index is prev's, an array until a
	// new regex is placed in it (write forks it).
	p := &arch.Placement{Arrays: make([]arch.ArrayPlan, len(prev.Arrays))}
	dirty := make([]uint32, len(p.Arrays))
	forked := make([]bool, len(p.Arrays))
	write := func(ai int) *arch.ArrayPlan {
		if !forked[ai] {
			p.Arrays[ai], forked[ai] = p.Arrays[ai].Fork(newOf), true
		}
		return &p.Arrays[ai]
	}
	moved := func(r int) bool { return newOf[r] != r }
	for ai := range prev.Arrays {
		oa, na := &prev.Arrays[ai], &p.Arrays[ai]
		if oa.Mode == arch.ModeNBVA && oa.Depth != opts.Depth ||
			slices.ContainsFunc(oa.Bins, func(b arch.BinPlan) bool { return len(b.Seqs) > opts.BinSize }) {
			return nil
		}
		if *na = *oa; !slices.ContainsFunc(oa.Regexes, moved) {
			continue
		}
		na = write(ai)
		na.Regexes = make([]int, 0, len(oa.Regexes))
		for _, r := range oa.Regexes {
			if n := newOf[r]; n >= 0 {
				na.Regexes = append(na.Regexes, n)
				continue
			}
			c := &prevRes.Regexes[r]
			if oa.Mode == arch.ModeNFA {
				if x := crossEdges(c, oa.SlotOf(r)); x > 0 {
					na.CrossTileEdges -= x
					dirty[ai] |= arch.GlobalSwitchBit
				}
			}
			for q := 0; ; q++ {
				t, ok := oa.TileOf(arch.StateRef{Regex: r, State: q})
				if !ok {
					break
				}
				if c.NBVA == nil || c.NBVA.States[q].BV == nil { // a BV-STE's columns go with its BVs
					na.Tiles[t].CCColumns--
				}
			}
		}
		for ti := range na.Tiles {
			nt := &na.Tiles[ti]
			if !slices.ContainsFunc(nt.Regexes, moved) {
				continue
			}
			regexes, bvs := make([]int, 0, len(nt.Regexes)), make([]arch.BVAlloc, 0, len(nt.BVs))
			for _, r := range nt.Regexes {
				if newOf[r] < 0 {
					dirty[ai] |= 1 << ti
				} else {
					regexes = append(regexes, newOf[r])
				}
			}
			nt.HasBV, nt.ReadKind = false, 0
			for _, bv := range nt.BVs {
				if bv.Regex = newOf[bv.Regex]; bv.Regex >= 0 {
					bvs = append(bvs, bv)
					nt.HasBV, nt.ReadKind = true, bv.Read
				} else {
					nt.CCColumns, nt.InitColumns, nt.BVColumns = nt.CCColumns-1, nt.InitColumns-1, nt.BVColumns-bv.Width
				}
			}
			nt.Regexes, nt.BVs = regexes, bvs
		}
		for bi := range na.Bins {
			b := &na.Bins[bi]
			if !slices.ContainsFunc(b.Seqs, func(ref [2]int) bool { return ref != arch.Hole && moved(ref[0]) }) {
				continue
			}
			b.Seqs = slices.Clone(b.Seqs)
			for k, ref := range b.Seqs {
				if ref != arch.Hole && newOf[ref[0]] < 0 {
					b.Seqs[k] = arch.Hole
					b.PaddingWaste += len(prevRes.Regexes[ref[0]].Seqs[ref[1]].Classes)
				} else if ref != arch.Hole {
					b.Seqs[k][0] = newOf[ref[0]]
				}
			}
		}
	}

	// The new regexes fill first-fit what the edit freed and unused tiles,
	// and only then the free room of tiles nothing moved in.
	fit := func(mode arch.Mode, place func(a *arch.ArrayPlan, allowed uint32) (touched uint32)) bool {
		for _, strict := range [2]bool{true, false} {
			for ai := range p.Arrays {
				a, allowed := &p.Arrays[ai], uint32(allTiles)
				if strict {
					allowed &^= a.UsedTiles() &^ dirty[ai]
				}
				if a.Mode == mode {
					if touched := place(write(ai), allowed); touched != 0 {
						dirty[ai] |= touched
						return true
					}
				}
			}
		}
		return false
	}
	spans := make([][2]int, 0, 64)   // freeSlot's
	units := make([]nbvaUnit, 0, 16) // unitsFor's
	var rest []lnfaSeq
	for i := range res.Regexes {
		c, ok := &res.Regexes[i], true
		switch {
		case kept[i] || c.Source == "":
		case c.Mode == compile.ModeNFA:
			ok = fit(arch.ModeNFA, func(a *arch.ArrayPlan, allowed uint32) uint32 {
				var slot int
				if slot, spans = freeSlot(spans[:0], a, res, c.NFA.NumStates(), allowed); slot >= 0 {
					return placeNFA(a, c, slot)
				}
				return 0
			})
		case c.Mode == compile.ModeNBVA:
			var err error
			units, err = unitsFor(units[:0], c, opts.Depth)
			ok = err == nil && fit(arch.ModeNBVA, func(a *arch.ArrayPlan, allowed uint32) uint32 { return tryPlace(a, units, c, allowed) })
		default:
			for _, s := range appendSeqs(nil, c) {
				if !fit(arch.ModeLNFA, func(a *arch.ArrayPlan, _ uint32) uint32 { return fillHole(a, s) }) {
					rest = append(rest, s)
				}
			}
		}
		if !ok {
			return nil
		}
	}
	if len(rest) > 0 { // in new bins, after the last LNFA array's
		last := len(p.Arrays) - 1
		for last >= 0 && p.Arrays[last].Mode != arch.ModeLNFA {
			last--
		}
		if last < 0 {
			return nil
		}
		before := len(write(last).Bins)
		if packBins(p, last, binsFor(rest, opts.BinSize), false) != nil {
			return nil
		}
		for _, b := range p.Arrays[last].Bins[before:] {
			dirty[last] |= tilesOf(b.Tiles)
		}
	}

	used, provisioned := p.Occupancy()
	holes := provisioned - used
	for ai := range p.Arrays {
		a := &p.Arrays[ai]
		if len(a.Regexes) == 0 {
			return nil // an array left empty is all hole
		}
		for _, b := range a.Bins {
			for _, ref := range b.Seqs {
				if ref == arch.Hole {
					holes += b.PaddedLen
				}
			}
		}
		a.Reused = allTiles &^ dirty[ai]
	}
	if float64(holes) > maxHoleShare*float64(provisioned)+float64(arch.TileSTEs*len(p.Arrays)) {
		return nil
	}
	return p
}

// tilesOf returns the mask of the tiles.
func tilesOf(tiles []int) uint32 {
	var m uint32
	for _, t := range tiles {
		m |= 1 << t
	}
	return m
}

// freeSlot returns the first slot of the NFA array from which n slots are
// free and on allowed tiles, or -1, and spans, which it appends the
// array's regexes' slot spans to.
func freeSlot(spans [][2]int, a *arch.ArrayPlan, res *compile.Result, n int, allowed uint32) (int, [][2]int) {
	for _, r := range a.Regexes {
		spans = append(spans, [2]int{a.SlotOf(r), res.Regexes[r].NFA.NumStates()})
	}
	slices.SortFunc(spans, func(x, y [2]int) int { return x[0] - y[0] })
	at := 0
	for _, s := range append(spans, [2]int{arch.ArraySTECapacity, 0}) {
	gap:
		for at+n <= s[0] {
			for t := at / arch.TileSTEs; t <= (at+n-1)/arch.TileSTEs; t++ {
				if allowed>>t&1 == 0 {
					at = (t + 1) * arch.TileSTEs
					continue gap
				}
			}
			return at, spans
		}
		at = max(at, s[0]+s[1])
	}
	return -1, spans
}

// fillHole puts a new sequence in the array's first bin hole that fits it
// and returns the bin's tiles, or 0.
func fillHole(a *arch.ArrayPlan, s lnfaSeq) uint32 {
	for bi := range a.Bins {
		b := &a.Bins[bi]
		k := slices.Index(b.Seqs, arch.Hole)
		if k < 0 || s.size > b.PaddedLen || b.CAMMapped && !s.cam {
			continue
		}
		b.Seqs = slices.Clone(b.Seqs) // may be shared with the served placement
		b.Seqs[k] = [2]int{s.regex, s.seq}
		b.PaddingWaste -= s.size
		for _, t := range b.Tiles {
			addRegex(&a.Tiles[t], s.regex)
		}
		appendUnique(&a.Regexes, s.regex)
		return tilesOf(b.Tiles)
	}
	return 0
}

// --- NFA mapping ---

func mapNFA(p *arch.Placement, regexes []*compile.Compiled) error {
	var cur *arch.ArrayPlan
	used := 0 // STEs used in current array
	for _, c := range regexes {
		n := c.NFA.NumStates()
		if n > arch.ArraySTECapacity {
			return fmt.Errorf("%w: %q needs %d STEs (NFA max %d)", ErrUnmappable, c.Source, n, arch.ArraySTECapacity)
		}
		if cur == nil || used+n > arch.ArraySTECapacity {
			cur, used = openArray(p, arch.ModeNFA, 0), 0
		}
		placeNFA(cur, c, used)
		used += n
	}
	return nil
}

// placeNFA puts the regex's states on the consecutive slots from slot on
// and returns the tiles it touched: the slot's tile, its states' tiles, and
// arch.GlobalSwitchBit when an edge crosses tiles.
func placeNFA(a *arch.ArrayPlan, c *compile.Compiled, slot int) uint32 {
	touched := uint32(1) << (slot / arch.TileSTEs)
	n := c.NFA.NumStates()
	a.PlaceSlots(c.Index, slot, n)
	for q := range n {
		tile := (slot + q) / arch.TileSTEs
		a.Tiles[tile].CCColumns++
		addRegex(&a.Tiles[tile], c.Index)
		touched |= 1 << tile
	}
	if x := crossEdges(c, slot); x > 0 {
		a.CrossTileEdges += x
		touched |= arch.GlobalSwitchBit
	}
	a.Regexes = append(a.Regexes, c.Index)
	return touched
}

// crossEdges counts the regex's follow edges that cross a tile boundary,
// and so use the global switch, when its states start at slot.
func crossEdges(c *compile.Compiled, slot int) int {
	n := 0
	for q, s := range c.NFA.States {
		for _, succ := range s.Follow {
			if (slot+succ)/arch.TileSTEs != (slot+q)/arch.TileSTEs {
				n++
			}
		}
	}
	return n
}

func addRegex(t *arch.TilePlan, idx int) {
	if len(t.Regexes) == 0 || t.Regexes[len(t.Regexes)-1] != idx {
		t.Regexes = append(t.Regexes, idx)
	}
}

// --- NBVA mapping ---

// nbvaUnit is one allocation unit: a standard STE or one (possibly split)
// piece of a BV-STE with its character class, set1 initial-vector column
// and bit-vector columns.
type nbvaUnit struct {
	state   int
	columns int
	bv      bool
	bvSize  int
	read    nbva.ReadAction
	tile    int // where tryPlace's fit pass put the unit
}

func mapNBVA(p *arch.Placement, regexes []*compile.Compiled, depth int) error {
	var cur *arch.ArrayPlan
	var units []nbvaUnit // one regex's units, reused from regex to regex
	for _, c := range regexes {
		var err error
		if units, err = unitsFor(units[:0], c, depth); err != nil {
			return err
		}
		if cur == nil {
			cur = openArray(p, arch.ModeNBVA, depth)
		}
		if tryPlace(cur, units, c, allTiles) == 0 {
			// Retry on a fresh array.
			cur = openArray(p, arch.ModeNBVA, depth)
			if tryPlace(cur, units, c, allTiles) == 0 {
				return fmt.Errorf("%w: %q does not fit one NBVA array (depth %d)", ErrUnmappable, c.Source, depth)
			}
		}
	}
	return nil
}

// unitsFor appends a compiled NBVA regex's allocation units to units,
// splitting bit vectors wider than a tile (Example 4.3's dichotomic split
// reduces to fixed-size chunks of (TileSTEs-2)×depth bits).
func unitsFor(units []nbvaUnit, c *compile.Compiled, depth int) ([]nbvaUnit, error) {
	maxChunkBits := (arch.TileSTEs - 2) * depth
	for q, s := range c.NBVA.States {
		if s.BV == nil {
			units = append(units, nbvaUnit{state: q, columns: 1})
			continue
		}
		size := s.BV.Size
		if size > arch.MaxBVBitsPerBV {
			return nil, fmt.Errorf("%w: BV of %d bits exceeds %d", ErrUnmappable, size, arch.MaxBVBitsPerBV)
		}
		// Wide bit vectors split into per-tile chunks (§4.1 splitting).
		// For r(m) the chunks chain as σ{a}σ{b} = σ{a+b}; for rAll the
		// chunks chain as σ{0,a}σ{0,b} = σ{0,a+b} — both are equivalent
		// regexes, so no cross-tile BV routing is needed (§3.3).
		for size > 0 {
			chunk := size
			if chunk > maxChunkBits {
				chunk = maxChunkBits
			}
			units = append(units, nbvaUnit{
				state:   q,
				columns: 2 + arch.BVWidth(chunk, depth), // CC + set1 + BV
				bv:      true,
				bvSize:  chunk,
				read:    s.BV.Read,
			})
			size -= chunk
		}
	}
	return units, nil
}

// tryPlace first-fit packs one regex's units into the array's allowed
// tiles — every unit takes the lowest tile with room — honoring the
// 128-column capacity and the r/rAll exclusivity per tile. The fit is
// decided on a copy of the tiles' occupancy counts alone, so a regex that
// does not fit leaves the array as it was and returns 0; one that fits is
// then written into the tiles in place and listed in the array, and the
// tiles it took are returned.
func tryPlace(a *arch.ArrayPlan, units []nbvaUnit, c *compile.Compiled, allowed uint32) (touched uint32) {
	var fit [arch.TilesPerArray]struct {
		columns int
		hasBV   bool
		read    nbva.ReadAction
	}
	for t := range fit {
		tp := &a.Tiles[t]
		fit[t].columns, fit[t].hasBV, fit[t].read = tp.Columns(), tp.HasBV, tp.ReadKind
	}
	for i := range units {
		u := &units[i]
		u.tile = -1
		for t := range fit {
			f := &fit[t]
			if allowed>>t&1 == 0 || f.columns+u.columns > arch.TileSTEs {
				continue
			}
			if u.bv && f.hasBV && f.read != u.read {
				continue // §4.1: no r and rAll in the same tile
			}
			f.columns += u.columns
			if u.bv {
				f.hasBV, f.read = true, u.read
			}
			u.tile = t
			break
		}
		if u.tile < 0 {
			return 0
		}
		touched |= 1 << u.tile
	}
	stateTile := a.PlaceStates(c.Index, c.NBVA.NumStates())
	prev := -1
	for _, u := range units {
		tp := &a.Tiles[u.tile]
		tp.CCColumns++
		if u.bv {
			tp.InitColumns++
			tp.BVColumns += u.columns - 2
			tp.BVs = append(tp.BVs, arch.BVAlloc{
				Regex: c.Index, STE: u.state, Size: u.bvSize,
				Width: u.columns - 2, Depth: a.Depth, Read: u.read,
			})
			tp.HasBV = true
			tp.ReadKind = u.read
		}
		addRegex(tp, c.Index)
		// A state's tile is that of its first unit (units come in state
		// order).
		if u.state != prev {
			stateTile[u.state] = int16(u.tile)
			prev = u.state
		}
	}
	a.Regexes = append(a.Regexes, c.Index)
	return touched
}

// --- LNFA mapping ---

type lnfaSeq struct {
	regex int
	seq   int
	size  int
	cam   bool
}

func appendSeqs(seqs []lnfaSeq, c *compile.Compiled) []lnfaSeq {
	for si, s := range c.Seqs {
		seqs = append(seqs, lnfaSeq{regex: c.Index, seq: si, size: len(s.Classes), cam: s.CAMMappable})
	}
	return seqs
}

func mapLNFA(p *arch.Placement, regexes []*compile.Compiled, binSize int) error {
	var seqs []lnfaSeq
	for _, c := range regexes {
		seqs = appendSeqs(seqs, c)
	}
	bins := binsFor(seqs, binSize)
	if len(bins) == 0 {
		return nil
	}
	openArray(p, arch.ModeLNFA, 0)
	return packBins(p, len(p.Arrays)-1, bins, true)
}

// binsFor shares the sequences out between the CAM and the local switch and
// bins each side.
func binsFor(seqs []lnfaSeq, binSize int) []arch.BinPlan {
	// Any LNFA can be one-hot encoded on the local switch; only
	// single-32-bit-code LNFAs may use the CAM (§3.2). To realize the
	// "both CAM and local switches store CCs" area gain, the mapper
	// balances the two resources: CAM-eligible sequences overflow to the
	// switch in proportion to the resources' capacities (128 vs 64 slots
	// per tile), so a tile carries up to 192 states.
	var eligible, switchSeqs []lnfaSeq
	totalStates, switchStates := 0, 0
	for _, s := range seqs {
		totalStates += s.size
		if s.cam {
			eligible = append(eligible, s)
		} else {
			switchSeqs = append(switchSeqs, s)
			switchStates += s.size
		}
	}
	// Desired split: switch holds SwitchLNFASlots/(TileSTEs+SwitchLNFASlots)
	// of the total states; top up from the eligible pool.
	switchTarget := totalStates * arch.SwitchLNFASlots / arch.TileLNFASlots
	// Move the smallest eligible sequences first and never overshoot the
	// target, so a lone large sequence stays on the CAM.
	sort.SliceStable(eligible, func(i, j int) bool { return eligible[i].size < eligible[j].size })
	moved := 0
	for moved < len(eligible) && switchStates+eligible[moved].size <= switchTarget {
		switchSeqs = append(switchSeqs, eligible[moved])
		switchStates += eligible[moved].size
		moved++
	}
	bins := makeBins(eligible[moved:], binSize, arch.TileSTEs)
	return append(bins, makeBins(switchSeqs, binSize, arch.SwitchLNFASlots)...)
}

type groupState struct {
	tile  int // physical tile index, -1 when none open
	depth int // depth units already used in that tile's regions
}

// groupAfter is the open tile a bin leaves its group: its last tile and
// the region depth it used there, or none when it ends on a tile boundary.
func groupAfter(b *arch.BinPlan) groupState {
	if rem := (b.StartOffset + b.PaddedLen) % b.RegionSize(); rem != 0 {
		return groupState{tile: b.Tiles[len(b.Tiles)-1], depth: rem}
	}
	return groupState{tile: -1}
}

func binKind(b *arch.BinPlan) int {
	if b.CAMMapped {
		return 0
	}
	return 1
}

// packBins places bins into LNFA array ai after the tiles its bins hold,
// opening an array when it is full — or, unless grow, failing with
// ErrUnmappable. CAM bins and switch bins may share physical tiles (the two
// resources are independent in LNFA mode — the §3.2 "both CAM and local
// switches" area gain): each kind takes fresh tiles from its own cursor,
// and bins with the same member count share tile regions, keeping
// utilization above 90% (§4.3).
func packBins(p *arch.Placement, ai int, bins []arch.BinPlan, grow bool) error {
	var next [2]int // first fresh tile for CAM [0] and switch [1] bins
	// Per kind and member count: the open tile with the region depth used.
	groups := [2]map[int]*groupState{{}, {}}
	for _, b := range p.Arrays[ai].Bins {
		kind, gs := binKind(&b), groupAfter(&b)
		next[kind] = max(next[kind], b.Tiles[len(b.Tiles)-1]+1)
		groups[kind][len(b.Seqs)] = &gs
	}
	for bi := range bins {
		b := &bins[bi]
		kind, members, region := binKind(b), len(b.Seqs), b.RegionSize()
		gs := groups[kind][members]
		if gs == nil {
			gs = &groupState{tile: -1}
			groups[kind][members] = gs
		}
		// Tiles required beyond the open one.
		avail := 0
		if gs.tile >= 0 {
			avail = region - gs.depth
		}
		fresh := 0
		if b.PaddedLen > avail {
			fresh = (b.PaddedLen - avail + region - 1) / region
		}
		if next[kind]+fresh > arch.TilesPerArray {
			if fresh > arch.TilesPerArray {
				return fmt.Errorf("%w: LNFA bin needs %d tiles (> %d per array)", ErrUnmappable, fresh, arch.TilesPerArray)
			}
			if !grow {
				return ErrUnmappable
			}
			openArray(p, arch.ModeLNFA, 0)
			ai, next, groups = len(p.Arrays)-1, [2]int{}, [2]map[int]*groupState{{}, {}}
			gs = &groupState{tile: -1}
			groups[kind][members] = gs
			avail = 0
			fresh = (b.PaddedLen + region - 1) / region
		}
		cur := &p.Arrays[ai]
		// Assign the tile list: the open partial tile (if used) plus
		// fresh tiles.
		var assigned []int
		b.StartOffset = 0
		if gs.tile >= 0 && avail > 0 {
			assigned = append(assigned, gs.tile)
			b.StartOffset = gs.depth
		}
		for i := 0; i < fresh; i++ {
			assigned = append(assigned, next[kind]+i)
		}
		next[kind] += fresh
		b.Tiles = assigned
		*gs = groupAfter(b)
		// Account tile occupancy and flags.
		for i, t := range assigned {
			tp := &cur.Tiles[t]
			lo := i * region
			hi := lo + region
			binLo := b.StartOffset
			binHi := b.StartOffset + b.PaddedLen
			if binLo > lo {
				lo = binLo
			}
			if binHi < hi {
				hi = binHi
			}
			slots := (hi - lo) * members
			if b.CAMMapped {
				tp.CAMSlots += slots
			} else {
				tp.SwitchSlots += slots
			}
			if i == 0 {
				tp.HasInitial = true
			}
			for _, ref := range b.Seqs {
				addRegex(tp, ref[0])
			}
		}
		for _, ref := range b.Seqs {
			appendUnique(&cur.Regexes, ref[0])
		}
		cur.Bins = append(cur.Bins, *b)
	}
	return nil
}

// makeBins implements the §4.3 binning: sort by size descending, fill the
// largest bin the capacity allows, halving the member count until the
// longest member fits its region.
func makeBins(seqs []lnfaSeq, binSize, tileCapacity int) []arch.BinPlan {
	sort.SliceStable(seqs, func(i, j int) bool { return seqs[i].size > seqs[j].size })
	var bins []arch.BinPlan
	i := 0
	for i < len(seqs) {
		b := binSize
		if rem := len(seqs) - i; b > rem {
			b = rem
		}
		// Halve until the region (tileCapacity/b) is non-empty and the
		// bin fits one array.
		for b > 1 {
			region := tileCapacity / b
			if region == 0 {
				b /= 2
				continue
			}
			tiles := (seqs[i].size + region - 1) / region
			if tiles > arch.TilesPerArray {
				b /= 2
				continue
			}
			break
		}
		region := tileCapacity / b
		longest := seqs[i].size
		tiles := (longest + region - 1) / region
		bin := arch.BinPlan{
			PaddedLen: longest,
			Tiles:     make([]int, tiles), // physical ids assigned later
			CAMMapped: tileCapacity == arch.TileSTEs,
		}
		for k := 0; k < b && i < len(seqs); k++ {
			s := seqs[i]
			bin.Seqs = append(bin.Seqs, [2]int{s.regex, s.seq})
			bin.PaddingWaste += longest - s.size
			i++
		}
		bins = append(bins, bin)
	}
	return bins
}

func appendUnique(s *[]int, v int) {
	for _, x := range *s {
		if x == v {
			return
		}
	}
	*s = append(*s, v)
}
