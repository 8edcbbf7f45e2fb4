// Package mapper places compiled regexes onto RAP arrays and tiles (§4.3):
// a greedy packing algorithm for NFA and NBVA regexes (with the §4.1
// splitting of wide bit vectors across tiles) and the LNFA binning
// procedure of §3.2 / §4.3 (sort by size, largest bin that fits, halve on
// overflow). The output placement drives both area accounting and the
// per-cycle activity model of the simulator.
package mapper

import (
	"errors"
	"fmt"
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

// Map places every successfully compiled regex. Arrays are homogeneous in
// mode; regexes never span arrays (§3.3: no inter-array communication).
func Map(res *compile.Result, opts Options) (*arch.Placement, error) {
	opts.setDefaults()
	if opts.Depth > arch.CAMRows {
		return nil, fmt.Errorf("mapper: depth %d exceeds CAM rows %d", opts.Depth, arch.CAMRows)
	}
	if opts.BinSize > arch.MaxBinSize {
		return nil, fmt.Errorf("mapper: bin size %d exceeds %d", opts.BinSize, arch.MaxBinSize)
	}
	p := &arch.Placement{}
	nfaRegexes := res.ByMode(compile.ModeNFA)
	nbvaRegexes := res.ByMode(compile.ModeNBVA)
	if opts.Packing == PackDecreasing {
		nfaRegexes = sortedBySize(nfaRegexes)
		nbvaRegexes = sortedBySize(nbvaRegexes)
	}
	if err := mapNFA(p, nfaRegexes); err != nil {
		return nil, err
	}
	if err := mapNBVA(p, nbvaRegexes, opts.Depth); err != nil {
		return nil, err
	}
	if err := mapLNFA(p, res.ByMode(compile.ModeLNFA), opts.BinSize); err != nil {
		return nil, err
	}
	return p, nil
}

// sortedBySize returns the regexes ordered by state count descending
// (stable, so equal sizes keep input order).
func sortedBySize(regexes []*compile.Compiled) []*compile.Compiled {
	out := append([]*compile.Compiled(nil), regexes...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].STEs > out[j].STEs })
	return out
}

// --- NFA mapping ---

func mapNFA(p *arch.Placement, regexes []*compile.Compiled) error {
	var cur *arch.ArrayPlan
	used := 0 // STEs used in current array
	openArray := func() {
		p.Arrays = append(p.Arrays, arch.ArrayPlan{
			Mode:  arch.ModeNFA,
			Tiles: make([]arch.TilePlan, arch.TilesPerArray),
		})
		cur = &p.Arrays[len(p.Arrays)-1]
		used = 0
	}
	for _, c := range regexes {
		n := c.NFA.NumStates()
		if n > arch.ArraySTECapacity {
			return fmt.Errorf("%w: %q needs %d STEs (NFA max %d)", ErrUnmappable, c.Source, n, arch.ArraySTECapacity)
		}
		if cur == nil || used+n > arch.ArraySTECapacity {
			openArray()
		}
		// States fill tiles sequentially from the current offset.
		tiles := cur.PlaceStates(c.Index, n)
		for q := range tiles {
			tile := (used + q) / arch.TileSTEs
			cur.Tiles[tile].CCColumns++
			tiles[q] = int16(tile)
			addRegex(&cur.Tiles[tile], c.Index)
		}
		// Cross-tile follow edges use the global switch.
		for q, s := range c.NFA.States {
			for _, succ := range s.Follow {
				if (used+succ)/arch.TileSTEs != (used+q)/arch.TileSTEs {
					cur.CrossTileEdges++
				}
			}
		}
		cur.Regexes = append(cur.Regexes, c.Index)
		used += n
	}
	return nil
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
	openArray := func() {
		p.Arrays = append(p.Arrays, arch.ArrayPlan{
			Mode:  arch.ModeNBVA,
			Tiles: make([]arch.TilePlan, arch.TilesPerArray),
			Depth: depth,
		})
		cur = &p.Arrays[len(p.Arrays)-1]
	}

	var units []nbvaUnit // one regex's units, reused from regex to regex
	for _, c := range regexes {
		var err error
		if units, err = unitsFor(units[:0], c, depth); err != nil {
			return err
		}
		if cur == nil {
			openArray()
		}
		if !tryPlace(cur, units, c) {
			// Retry on a fresh array.
			openArray()
			if !tryPlace(cur, units, c) {
				return fmt.Errorf("%w: %q does not fit one NBVA array (depth %d)", ErrUnmappable, c.Source, depth)
			}
		}
		cur.Regexes = append(cur.Regexes, c.Index)
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

// tryPlace first-fit packs one regex's units into the array's tiles — every
// unit takes the lowest tile with room — honoring the 128-column capacity
// and the r/rAll exclusivity per tile. The fit is decided on a copy of the
// tiles' occupancy counts alone, so a regex that does not fit leaves the
// array as it was; one that fits is then written into the tiles in place.
func tryPlace(a *arch.ArrayPlan, units []nbvaUnit, c *compile.Compiled) bool {
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
			if f.columns+u.columns > arch.TileSTEs {
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
			return false
		}
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
	return true
}

// --- LNFA mapping ---

type lnfaSeq struct {
	regex int
	seq   int
	size  int
	cam   bool
}

func mapLNFA(p *arch.Placement, regexes []*compile.Compiled, binSize int) error {
	// Any LNFA can be one-hot encoded on the local switch; only
	// single-32-bit-code LNFAs may use the CAM (§3.2). To realize the
	// "both CAM and local switches store CCs" area gain, the mapper
	// balances the two resources: CAM-eligible sequences overflow to the
	// switch in proportion to the resources' capacities (128 vs 64 slots
	// per tile), so a tile carries up to 192 states.
	var camSeqs, switchSeqs []lnfaSeq
	var eligible []lnfaSeq
	for _, c := range regexes {
		for si, s := range c.Seqs {
			e := lnfaSeq{regex: c.Index, seq: si, size: len(s.Classes)}
			if s.CAMMappable {
				e.cam = true
				eligible = append(eligible, e)
			} else {
				switchSeqs = append(switchSeqs, e)
			}
		}
	}
	// Desired split: switch holds SwitchLNFASlots/(TileSTEs+SwitchLNFASlots)
	// of the total states; top up from the eligible pool.
	totalStates := 0
	for _, s := range eligible {
		totalStates += s.size
	}
	for _, s := range switchSeqs {
		totalStates += s.size
	}
	switchTarget := totalStates * arch.SwitchLNFASlots / arch.TileLNFASlots
	switchStates := 0
	for _, s := range switchSeqs {
		switchStates += s.size
	}
	// Move the smallest eligible sequences first and never overshoot the
	// target, so a lone large sequence stays on the CAM.
	sort.SliceStable(eligible, func(i, j int) bool { return eligible[i].size < eligible[j].size })
	moved := 0
	for moved < len(eligible) && switchStates+eligible[moved].size <= switchTarget {
		switchSeqs = append(switchSeqs, eligible[moved])
		switchStates += eligible[moved].size
		moved++
	}
	camSeqs = eligible[moved:]
	bins := makeBins(camSeqs, binSize, arch.TileSTEs)
	bins = append(bins, makeBins(switchSeqs, binSize, arch.SwitchLNFASlots)...)
	if len(bins) == 0 {
		return nil
	}

	// Greedy placement of bins into arrays. CAM bins and switch bins may
	// share physical tiles (the two resources are independent in LNFA
	// mode — the §3.2 "both CAM and local switches" area gain), and bins
	// with the same member count share tile regions, keeping utilization
	// above 90% (§4.3).
	var cur *arch.ArrayPlan
	var camTile, switchTile int
	// Per (resource kind, member count): open tile with remaining region
	// depth, carried across bins of the same shape.
	type groupState struct {
		tile  int // physical tile index, -1 when none open
		depth int // depth units already used in that tile's regions
	}
	camGroups := map[int]*groupState{}
	switchGroups := map[int]*groupState{}
	openArray := func() {
		p.Arrays = append(p.Arrays, arch.ArrayPlan{
			Mode:  arch.ModeLNFA,
			Tiles: make([]arch.TilePlan, arch.TilesPerArray),
		})
		cur = &p.Arrays[len(p.Arrays)-1]
		camTile, switchTile = 0, 0
		camGroups = map[int]*groupState{}
		switchGroups = map[int]*groupState{}
	}
	openArray()
	for bi := range bins {
		b := &bins[bi]
		members := len(b.Seqs)
		region := regionSizeFor(b)
		cursor, groups := &camTile, camGroups
		if !b.CAMMapped {
			cursor, groups = &switchTile, switchGroups
		}
		gs := groups[members]
		if gs == nil {
			gs = &groupState{tile: -1}
			groups[members] = gs
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
		if *cursor+fresh > arch.TilesPerArray {
			if fresh > arch.TilesPerArray {
				return fmt.Errorf("%w: LNFA bin needs %d tiles (> %d per array)", ErrUnmappable, fresh, arch.TilesPerArray)
			}
			openArray()
			cursor, groups = &camTile, camGroups
			if !b.CAMMapped {
				cursor, groups = &switchTile, switchGroups
			}
			gs = &groupState{tile: -1}
			groups[members] = gs
			avail = 0
			fresh = (b.PaddedLen + region - 1) / region
		}
		// Assign the tile list: the open partial tile (if used) plus
		// fresh tiles.
		var assigned []int
		b.StartOffset = 0
		if gs.tile >= 0 && avail > 0 {
			assigned = append(assigned, gs.tile)
			b.StartOffset = gs.depth
		}
		for i := 0; i < fresh; i++ {
			assigned = append(assigned, *cursor+i)
		}
		*cursor += fresh
		b.Tiles = assigned
		// Advance the group cursor to the bin's end position.
		endDepth := b.StartOffset + b.PaddedLen
		lastTile := assigned[len(assigned)-1]
		rem := endDepth % region
		if rem == 0 {
			gs.tile = -1
			gs.depth = 0
		} else {
			gs.tile = lastTile
			gs.depth = rem
		}
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

// regionSizeFor returns the per-member state budget per tile.
func regionSizeFor(b *arch.BinPlan) int {
	cap := arch.TileSTEs
	if !b.CAMMapped {
		cap = arch.SwitchLNFASlots
	}
	n := len(b.Seqs)
	if n == 0 {
		return cap
	}
	r := cap / n
	if r == 0 {
		r = 1
	}
	return r
}

// RegionSize exposes regionSizeFor for the simulator.
func RegionSize(b *arch.BinPlan) int { return regionSizeFor(b) }

func appendUnique(s *[]int, v int) {
	for _, x := range *s {
		if x == v {
			return
		}
	}
	*s = append(*s, v)
}
