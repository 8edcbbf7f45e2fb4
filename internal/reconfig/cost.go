package reconfig

import (
	"cmp"
	"slices"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/hwmodel"
)

// ConfigBusBits is the width of the configuration path into a bank: one
// Bank Input Buffer entry per cycle, matching the 128-bit tile row width
// the §3.3 I/O hierarchy moves per cycle.
const ConfigBusBits = 128

// pingPongFlipCycles is the handoff cost when the bank input buffer
// flips halves: the array input FIFOs must drain before the next half
// streams (§3.3's two-level ping-pong buffering, reused as the config
// load path during deployment).
const pingPongFlipCycles = 2

// Cost prices one reconfiguration: how many hardware write operations it
// performs, how many configuration bits cross the bank I/O path, and what
// that costs in cycles, energy and wall-clock time at the RAP clock.
type Cost struct {
	CodeWrites      int // 32-bit CAM column writes
	TileMetaWrites  int // tile mode/flag/BV-table rewrites
	LocalRowWrites  int // 128-bit local-switch row writes
	GlobalRowWrites int // 256-bit global-switch row writes
	ArraysTouched   int
	TilesTouched    int

	ConfigBits   int64 // total configuration payload pushed through the bus
	ReloadCycles int64 // cycles to stream + write the payload
	EnergyPJ     float64
}

// LatencyUS returns the reload latency in microseconds at the RAP clock.
func (c Cost) LatencyUS() float64 {
	return float64(c.ReloadCycles) / (hwmodel.ClockRAPGHz * 1e3)
}

// tileMetaBits is the payload of one tile-metadata rewrite: mode+flags
// plus the BV table entries (6 bytes each on the wire).
func tileMetaBits(nBVs int) int64 { return 8 * int64(2+6*nBVs) }

// CostOf prices a delta. Write counts come straight from the record
// list; streaming cycles model the §3.3 path — the payload enters through
// the 128-bit bank bus into the ping-pong Bank Input Buffer, with a flip
// penalty every BankInputBufferEntries words — and energy charges each
// write to the circuit it programs (Table 1 models): CAM column writes to
// the CAM, switch row writes to the 128×128 / 256×256 SRAM FCBs, plus
// controller activations per touched tile/array and wire energy per word.
func CostOf(d *Delta) Cost {
	c, _ := d.account()
	return c
}

// arrayLoad is one touched array's share of a delta's payload.
type arrayLoad struct {
	array int
	bits  int64
}

// addLoad charges bits to array ai: to the last entry when that is ai's,
// else to a new one.
func addLoad(loads []arrayLoad, ai int, bits int64) []arrayLoad {
	if n := len(loads); n > 0 && loads[n-1].array == ai {
		loads[n-1].bits += bits
		return loads
	}
	return append(loads, arrayLoad{array: ai, bits: bits})
}

// account is the one walk over a delta's records behind CostOf,
// TouchedArrays and Schedule: it prices the delta and attributes the
// payload to the arrays it writes, returned in ascending order.
//
// Records of one array, and of one tile, come in runs — Diff emits every
// list in array-then-tile order — so the walk folds a run into one entry
// and sorts the handful of entries left; no order is assumed of a delta
// that was parsed or built by hand.
func (d *Delta) account() (Cost, []arrayLoad) {
	var c Cost
	var loads []arrayLoad
	var tileBuf [64]uint64
	tiles := tileBuf[:0] // array<<32 | tile
	charge := func(ai int, bits int64) {
		c.ConfigBits += bits
		loads = addLoad(loads, ai, bits)
	}
	touchTile := func(ai, ti int) {
		key := uint64(uint32(ai))<<32 | uint64(uint32(ti))
		if n := len(tiles); n == 0 || tiles[n-1] != key {
			tiles = append(tiles, key)
		}
	}

	for i := range d.Replaces {
		r := &d.Replaces[i]
		for ti := range r.Config.Tiles {
			touchTile(r.Array, ti)
		}
		charge(r.Array, c.writeArray(&r.Config))
	}
	for _, h := range d.Headers {
		charge(h.Array, 16)
	}
	for i := range d.TileMetas {
		m := &d.TileMetas[i]
		touchTile(m.Array, m.Tile)
		c.TileMetaWrites++
		charge(m.Array, tileMetaBits(len(m.BVs)))
	}
	for i := range d.Codes {
		touchTile(d.Codes[i].Array, d.Codes[i].Tile)
		charge(d.Codes[i].Array, arch.CAMRows+16) // 32-bit code + column address/role
	}
	c.CodeWrites += len(d.Codes)
	for i := range d.LocalRows {
		touchTile(d.LocalRows[i].Array, d.LocalRows[i].Tile)
		charge(d.LocalRows[i].Array, arch.TileSTEs+16)
	}
	c.LocalRowWrites += len(d.LocalRows)
	for i := range d.GlobalRows {
		charge(d.GlobalRows[i].Array, 256+16)
	}
	c.GlobalRowWrites += len(d.GlobalRows)

	slices.Sort(tiles)
	c.TilesTouched = len(slices.Compact(tiles))
	slices.SortFunc(loads, func(a, b arrayLoad) int { return cmp.Compare(a.array, b.array) })
	merged := loads[:0]
	for _, l := range loads {
		merged = addLoad(merged, l.array, l.bits)
	}
	c.ArraysTouched = len(merged)
	c.finish()
	return c, merged
}

// streamCycles is the time a payload takes through the 128-bit bank bus
// into the ping-pong Bank Input Buffer, which pays a flip penalty every
// BankInputBufferEntries words.
func streamCycles(bits int64) (words, cycles int64) {
	words = (bits + ConfigBusBits - 1) / ConfigBusBits
	flips := (words + arch.BankInputBufferEntries - 1) / arch.BankInputBufferEntries
	return words, words + flips*pingPongFlipCycles
}

// finish derives streaming cycles and energy from the write counts: every
// write charges the circuit it programs plus controller and wire activity.
func (c *Cost) finish() {
	var words int64
	words, c.ReloadCycles = streamCycles(c.ConfigBits)
	c.EnergyPJ = float64(c.CodeWrites)*hwmodel.CAM.AccessEnergyPJ(1) +
		float64(c.LocalRowWrites)*hwmodel.SRAM128.AccessEnergyPJ(1) +
		float64(c.GlobalRowWrites)*hwmodel.SRAM256.AccessEnergyPJ(1) +
		float64(c.TilesTouched)*hwmodel.LocalController.AccessEnergyPJ(1) +
		float64(c.ArraysTouched)*hwmodel.GlobalController.AccessEnergyPJ(1) +
		float64(words)*hwmodel.GlobalWireMMPerHop*hwmodel.GlobalWire.AccessEnergyPJ(1)
}

// FullCost prices a full-image redeploy of img: every CAM column, every
// switch row and every tile header of every provisioned array is written,
// regardless of content — the §3.3 one-shot deployment path the delta is
// compared against.
func FullCost(img *bitstream.Image) Cost {
	var c Cost
	c.ArraysTouched = len(img.Arrays)
	for ai := range img.Arrays {
		c.TilesTouched += len(img.Arrays[ai].Tiles)
		c.ConfigBits += c.writeArray(&img.Arrays[ai]) + 16 // and its header
	}
	c.finish()
	return c
}

// writeArray counts the writes that program array a whole — every CAM
// column, local-switch row and tile header, and the global switch — into c
// and returns the bits they carry.
func (c *Cost) writeArray(a *bitstream.ArrayConfig) int64 {
	bits := int64(256 * 256)
	for ti := range a.Tiles {
		c.CodeWrites += arch.TileSTEs
		c.LocalRowWrites += arch.TileSTEs
		c.TileMetaWrites++
		bits += int64(arch.TileSTEs)*arch.CAMRows +
			int64(arch.TileSTEs)*arch.TileSTEs + tileMetaBits(len(a.Tiles[ti].BVs))
	}
	c.GlobalRowWrites += 256
	return bits
}
