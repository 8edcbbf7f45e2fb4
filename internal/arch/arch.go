// Package arch defines the RAP hardware geometry (§3.3, Fig 8) — the
// bank / array / tile hierarchy and per-mode capacity rules — plus the
// placement plan types shared between the mapper (which produces them)
// and the cycle-level simulator (which executes them).
package arch

import (
	"math/bits"
	"slices"

	"repro/internal/nbva"
)

// Geometry of the RAP hierarchy (§3.3).
const (
	// TileSTEs is the number of STE columns per tile: the CAM is 32×128
	// and the local switch 128×128.
	TileSTEs = 128
	// CAMRows is the number of CAM rows = bits per stored CAM code; also
	// the number of rows available per column for bit-vector storage.
	CAMRows = 32
	// TilesPerArray tiles share one 256×256 global switch.
	TilesPerArray = 16
	// ArraysPerBank arrays share the bank I/O buffers.
	ArraysPerBank = 4
	// GlobalPortsPerTile STEs per tile can route through the global
	// switch (256 ports / 16 tiles ... the paper states 32).
	GlobalPortsPerTile = 32
	// ArraySTECapacity bounds a single regex in NFA/LNFA mode (§3.3:
	// "RAP can support regexes with up to 2048 STEs").
	ArraySTECapacity = TileSTEs * TilesPerArray
	// MaxBVBitsPerBV is the largest single bit vector (§3.3: 4064 bits =
	// 127 columns × 32 rows, one column left for the character class).
	MaxBVBitsPerBV = (TileSTEs - 1) * CAMRows
	// MaxNBVAUnfolded is the largest regex supported after unfolding in
	// NBVA mode (§3.3).
	MaxNBVAUnfolded = 64528
	// MaxBinSize is the largest number of LNFAs per bin (§3.3, from DSE).
	MaxBinSize = 32
	// RingWidthBits is the LNFA ring-routing width (§3.3).
	RingWidthBits = 64
	// SwitchLNFASlots is the number of one-hot-encoded CCs the local
	// switch stores in LNFA mode: each 256-bit one-hot code occupies two
	// 128-bit switch columns (§3.2).
	SwitchLNFASlots = TileSTEs / 2
	// TileLNFASlots is the total LNFA state capacity of a tile: CAM
	// columns (single-32-bit-code CCs) plus switch slots (one-hot CCs).
	TileLNFASlots = TileSTEs + SwitchLNFASlots

	// Bank I/O buffering (§3.3).
	BankInputBufferEntries  = 128
	ArrayInputFIFOEntries   = 8
	BankOutputBufferEntries = 64
	ArrayOutputFIFOEntries  = 2
)

// BVDepths are the depths explored by the design space exploration
// (§5.3). The depth is the number of CAM rows a bit vector spans; the
// bit-vector-processing phase takes depth cycles.
var BVDepths = []int{4, 8, 16, 32}

// BinSizes are the LNFA bin sizes explored by the DSE (§5.3).
var BinSizes = []int{1, 2, 4, 8, 16, 32}

// BVWidth returns the number of CAM columns a bit vector of the given
// size occupies at the given depth (§3.1: minimal contiguous columns).
func BVWidth(size, depth int) int {
	if size <= 0 {
		return 0
	}
	return (size + depth - 1) / depth
}

// BVAlloc describes one placed bit vector.
type BVAlloc struct {
	Regex int // compiled regex index
	STE   int // machine state index within the regex's NBVA
	Size  int
	Width int
	Depth int
	Read  nbva.ReadAction
}

// TilePlan is the configuration of one tile produced by the mapper.
type TilePlan struct {
	// CCColumns is the number of CAM columns storing character classes
	// (every mode).
	CCColumns int
	// InitColumns is the number of columns holding set1 initial vectors
	// (NBVA mode).
	InitColumns int
	// BVColumns is the number of CAM columns repurposed as bit-vector
	// storage (NBVA mode).
	BVColumns int
	// BVs lists the bit vectors stored in this tile.
	BVs []BVAlloc
	// ReadKind is the read action of this tile's BVs; r and rAll never
	// share a tile (§4.1).
	ReadKind nbva.ReadAction
	// HasBV reports whether any BV is stored here.
	HasBV bool

	// LNFA mode occupancy.
	CAMSlots    int  // states stored as CAM codes
	SwitchSlots int  // states stored one-hot in the local switch
	HasInitial  bool // holds at least one LNFA initial state (binning)

	// Regexes (compiled indices) with at least one state in this tile.
	Regexes []int
}

// Columns returns the total CAM columns used in NBVA/NFA mode.
func (t *TilePlan) Columns() int { return t.CCColumns + t.InitColumns + t.BVColumns }

// LNFAUsed returns the LNFA slots used.
func (t *TilePlan) LNFAUsed() int { return t.CAMSlots + t.SwitchSlots }

// Mode mirrors compile.Mode without importing it (avoiding a cycle);
// values match compile.Mode.
type Mode int

const (
	ModeNFA Mode = iota
	ModeNBVA
	ModeLNFA
)

func (m Mode) String() string {
	switch m {
	case ModeNBVA:
		return "NBVA"
	case ModeLNFA:
		return "LNFA"
	default:
		return "NFA"
	}
}

// BinPlan is one LNFA bin (§3.2): up to MaxBinSize sequences mapped
// regex-sliced across a run of tiles, with all initial states in the
// first tile. Bins with the same member count share tile structure
// ("each tile can only support bins with an identical number of LNFAs"),
// so a bin may start mid-tile at StartOffset.
type BinPlan struct {
	// Seqs identifies the member sequences as (regex index, sequence
	// index) pairs. A member a later generation removed is a hole, Hole:
	// its padded slots stay reserved, and the members after it keep theirs.
	Seqs [][2]int
	// PaddedLen is the per-member state budget (the longest member).
	PaddedLen int
	// Tiles are the array-local tile indices the bin occupies, in order.
	Tiles []int
	// StartOffset is the depth position within the first tile's regions
	// where this bin's slices begin (0 when the bin starts a fresh tile).
	StartOffset int
	// CAMMapped is true when members use single-code CAM mapping; false
	// means one-hot local-switch mapping.
	CAMMapped bool
	// PaddingWaste is the number of unused padded state slots.
	PaddingWaste int
}

// RegionSize is the per-member state budget per tile: the tile's CAM
// columns, or its one-hot switch slots, shared among the bin's members.
func (b *BinPlan) RegionSize() int {
	slots := TileSTEs
	if !b.CAMMapped {
		slots = SwitchLNFASlots
	}
	if len(b.Seqs) == 0 {
		return slots
	}
	return max(1, slots/len(b.Seqs))
}

// Hole is the BinPlan.Seqs entry of a removed member.
var Hole = [2]int{-1, -1}

// ArrayPlan is the configuration of one array. Arrays are homogeneous in
// mode (§4.3: the mapper determines the mode of each RAP array).
type ArrayPlan struct {
	Mode    Mode
	Tiles   []TilePlan
	Regexes []int // compiled regex indices mapped to this array

	// NFA mode: number of follow edges that cross tile boundaries and
	// therefore use the global switch.
	CrossTileEdges int
	// NBVA mode: uniform BV depth of this array's tiles.
	Depth int
	// LNFA mode: the bins in this array.
	Bins []BinPlan

	// Reused marks, on a placement that mapper.Remap derived from a served
	// one, what is configured exactly as in the served placement's array of
	// the same index: bit t for tile t, GlobalSwitchBit for the global
	// switch. bitstream.Rebuild copies those from the served image. A cold
	// placement reuses nothing.
	Reused uint32

	// Tile of every (regex, state) placed in this array, for the simulator
	// and the image builder: spans is indexed by compiled regex index and
	// locates that regex's states in stateTile, or an NFA regex's slots.
	// Written through PlaceStates, PlaceSlots and Fork, read through TileOf
	// and SlotOf.
	spans     []stateSpan
	stateTile []int16
}

// GlobalSwitchBit is the global switch's bit of ArrayPlan.Reused.
const GlobalSwitchBit = 1 << TilesPerArray

// stateSpan is one regex's run of ArrayPlan.stateTile; n is 0 for a regex
// with no states in the array. An NFA regex's states take the consecutive
// slots from slot on and have no run: off is -1.
type stateSpan struct{ off, n, slot int32 }

// StateRef identifies one automaton state of one compiled regex.
type StateRef struct {
	Regex int // compiled regex index
	State int // state index within that regex's automaton / sequence pack
}

// PlaceStates records that regex's n states live in this array and returns
// their tile slots, indexed by state, for the mapper to fill in. A regex
// is placed once.
func (a *ArrayPlan) PlaceStates(regex, n int) []int16 {
	off := len(a.stateTile)
	a.place(regex, stateSpan{off: int32(off), n: int32(n)})
	a.stateTile = append(a.stateTile, make([]int16, n)...)
	return a.stateTile[off:]
}

// PlaceSlots records that an NFA regex's n states take the consecutive
// slots from slot on, slot/TileSTEs being a slot's tile.
func (a *ArrayPlan) PlaceSlots(regex, slot, n int) {
	a.place(regex, stateSpan{off: -1, n: int32(n), slot: int32(slot)})
}

func (a *ArrayPlan) place(regex int, sp stateSpan) {
	if len(a.spans) <= regex {
		a.spans = append(a.spans, make([]stateSpan, regex+1-len(a.spans))...)
	}
	a.spans[regex] = sp
}

// SlotOf returns the slot of an NFA regex's first state.
func (a *ArrayPlan) SlotOf(regex int) int { return int(a.spans[regex].slot) }

// Fork returns a copy of a that a mapper may change without writing a, its
// regexes renumbered: regex r becomes newOf[r], and one newOf maps below 0
// is dropped. The tiles and bins are copied; the slices a tile shares with
// a, the array's regexes and the state tiles are clipped, so appending to
// one copies it, and a bin's members are shared, so a writer copies them
// first. The state tiles are compacted once the dropped outnumber the rest.
func (a *ArrayPlan) Fork(newOf []int) ArrayPlan {
	f := *a
	f.Tiles = slices.Clone(a.Tiles)
	for t := range f.Tiles {
		f.Tiles[t].Regexes, f.Tiles[t].BVs = slices.Clip(f.Tiles[t].Regexes), slices.Clip(f.Tiles[t].BVs)
	}
	f.Regexes, f.Bins = slices.Clip(a.Regexes), slices.Clone(a.Bins)
	f.spans, f.stateTile = make([]stateSpan, 0, len(a.spans)), slices.Clip(a.stateTile)
	live := 0
	for r, sp := range a.spans {
		if sp.n > 0 && r < len(newOf) && newOf[r] >= 0 {
			f.place(newOf[r], sp)
			live += int(sp.n)
		}
	}
	if len(f.stateTile) > 2*live {
		tiles := make([]int16, 0, live)
		for r := range f.spans {
			if sp := &f.spans[r]; sp.off >= 0 {
				sp.off, tiles = int32(len(tiles)), append(tiles, a.stateTile[sp.off:sp.off+sp.n]...)
			}
		}
		f.stateTile = tiles
	}
	return f
}

// TileOf returns the tile holding the state's character-class column (the
// first one, for a bit vector split across tiles), or false when the state
// is not placed in this array.
func (a *ArrayPlan) TileOf(ref StateRef) (int, bool) {
	if ref.Regex < 0 || ref.Regex >= len(a.spans) {
		return 0, false
	}
	sp := a.spans[ref.Regex]
	if ref.State < 0 || ref.State >= int(sp.n) {
		return 0, false
	}
	if sp.off < 0 {
		return (int(sp.slot) + ref.State) / TileSTEs, true
	}
	return int(a.stateTile[int(sp.off)+ref.State]), true
}

// UsedTiles returns the tiles with any occupancy, bit t for tile t.
func (a *ArrayPlan) UsedTiles() uint32 {
	var used uint32
	for i := range a.Tiles {
		if t := &a.Tiles[i]; t.Columns() > 0 || t.LNFAUsed() > 0 {
			used |= 1 << i
		}
	}
	return used
}

// TilesUsed returns the number of tiles with any occupancy.
func (a *ArrayPlan) TilesUsed() int { return bits.OnesCount32(a.UsedTiles()) }

// Placement is a full mapping of a compiled pattern set onto arrays.
type Placement struct {
	Arrays []ArrayPlan
}

// TilesUsed returns the total tiles used across arrays.
func (p *Placement) TilesUsed() int {
	n := 0
	for i := range p.Arrays {
		n += p.Arrays[i].TilesUsed()
	}
	return n
}

// TilesReused returns the used tiles ArrayPlan.Reused marks: those an
// update leaves configured as they were.
func (p *Placement) TilesReused() (n int) {
	for i := range p.Arrays {
		n += bits.OnesCount32(p.Arrays[i].UsedTiles() & p.Arrays[i].Reused)
	}
	return n
}

// Banks returns the number of banks needed.
func (p *Placement) Banks() int {
	return (len(p.Arrays) + ArraysPerBank - 1) / ArraysPerBank
}

// Utilization returns the fraction of provisioned hardware resources the
// placement actually uses, over used tiles: CAM columns for NFA/NBVA
// tiles, and each LNFA resource (CAM slots, switch slots) counted when
// the tile hosts that resource kind. The mapper targets the paper's §4.3
// ">90% average utilization".
func (p *Placement) Utilization() float64 {
	used, provisioned := p.Occupancy()
	if provisioned == 0 {
		return 0
	}
	return float64(used) / float64(provisioned)
}

// Occupancy returns the resources Utilization divides: those used, and
// those provisioned over used tiles.
func (p *Placement) Occupancy() (used, provisioned int) {
	for ai := range p.Arrays {
		a := &p.Arrays[ai]
		for ti := range a.Tiles {
			t := &a.Tiles[ti]
			if cols := t.Columns(); cols > 0 {
				used += cols
				provisioned += TileSTEs
			}
			if t.CAMSlots > 0 {
				used += t.CAMSlots
				provisioned += TileSTEs
			}
			if t.SwitchSlots > 0 {
				used += t.SwitchSlots
				provisioned += SwitchLNFASlots
			}
		}
	}
	return used, provisioned
}
