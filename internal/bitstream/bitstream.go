// Package bitstream builds the RAP deployment image: the bit-exact
// configuration pre-loaded into the hardware before streaming starts
// (§3.3: "The hardware configuration is pre-loaded to RAP during
// deployment"). For every tile it materializes what the paper's sections
// 3.1–3.2 describe symbolically:
//
//   - the 32-bit CAM codes of every character-class column (CAMA's
//     encoding, internal/charclass),
//   - the BV-mask designating which CAM columns store bit vectors, plus
//     per-BV metadata (size, width, depth, read action),
//   - the 128×128 local-switch matrix: the NFA transfer function, the
//     NBVA action encodings, or the LNFA one-hot codes,
//   - the 256×256 global-switch matrix per array.
//
// The image serializes to a compact binary format (magic, version,
// CRC-32) and parses back; the round trip is property-tested. Image sizes
// are an honest measure of configuration cost — a metric reported by
// rapc -bitstream.
//
// An image holds its tiles and global switches by pointer, and successive
// generations share them: Rebuild takes every tile and switch the
// placement marks reused from the served image as the same pointer and
// allocates only the ones it writes. A tile or switch is therefore never
// written once the image that first holds it is built, and its CRC-32 is
// taken then, once (crc.go); code that edits an image (reconfig.Apply)
// clones first and seals what it wrote.
package bitstream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/compile"
)

// Column roles in a configured tile.
const (
	ColUnused byte = iota
	ColCC          // character-class CAM code
	ColInit        // set1 initial-vector column (NBVA)
	ColBV          // bit-vector storage column (NBVA)
)

// TileMode mirrors arch.Mode for serialization.
type TileMode = arch.Mode

// BVConfig is the per-bit-vector metadata of §3.1.
type BVConfig struct {
	FirstColumn uint8 // leftmost BV column
	Width       uint8
	Depth       uint8
	ReadAll     bool   // rAll vs r(n)
	Size        uint16 // bits
}

// TileConfig is one tile's full configuration.
type TileConfig struct {
	Mode     TileMode
	ColRole  [arch.TileSTEs]byte   // role of each CAM column
	CAMCodes [arch.TileSTEs]uint32 // 32-bit code per CC column (hi<<16|lo)
	BVs      []BVConfig
	// LocalSwitch is the 128×128 crossbar bitmap, row-major (row = driving
	// line, bit = crossing point programmed '1'). In LNFA mode rows hold
	// one-hot codes instead of transfer-function dots.
	LocalSwitch [arch.TileSTEs * arch.TileSTEs / 8]byte
	// HasInitial marks LNFA bin-leading tiles (power-gating control).
	HasInitial bool

	crc uint64 // 1<<32 | the CRC-32 of the wire form, once sealed
}

// ArrayConfig is one array's configuration.
type ArrayConfig struct {
	Mode  arch.Mode
	Depth uint8
	Tiles []*TileConfig
	// GlobalSwitch is the 256×256 crossbar bitmap, row-major.
	GlobalSwitch *[256 * 256 / 8]byte

	switchCRC uint64 // 1<<32 | the CRC-32 of GlobalSwitch, once sealed
}

// Image is a full deployment image. It is not changed once built, and
// neither is any tile or global switch it holds: those may be shared, by
// pointer, with the image it was rebuilt from and with the images rebuilt
// from it.
type Image struct {
	Arrays []ArrayConfig

	crc atomic.Uint64 // 1<<32 | CRC() once taken
}

// SizeBytes returns the serialized size, from the layout MarshalBinary
// writes: nothing is marshalled.
func (img *Image) SizeBytes() int {
	n := imageHeaderBytes + crcBytes
	for i := range img.Arrays {
		n += img.Arrays[i].SizeBytes()
	}
	return n
}

// setBit sets crossbar bit (row, col).
func setBit(m []byte, row, col, width int) {
	idx := row*width + col
	m[idx/8] |= 1 << (idx % 8)
}

// Build materializes the deployment image for a placement. It is Rebuild
// with no served image.
func Build(res *compile.Result, p *arch.Placement) (*Image, error) {
	return Rebuild(nil, res, p)
}

// Rebuild is Build on base, the served image of the placement p was
// derived from by mapper.Remap: every tile and global switch p marks
// Reused is base's, shared by pointer, and only the rest is allocated and
// written. The image is Build(res, p)'s, in the time and memory it takes to
// write what the update changed: only the regexes and LNFA bins with a
// state on a written tile are visited — every regex of an NFA array whose
// global switch is written — and only the written tiles and switches are
// checksummed (seal). A nil base is Build.
func Rebuild(base *Image, res *compile.Result, p *arch.Placement) (*Image, error) {
	img := &Image{Arrays: make([]ArrayConfig, len(p.Arrays))}
	var seen []uint64 // bit r: regex r has a state on a written tile
	var written []int // the regexes with one, in plan order
	for ai := range p.Arrays {
		plan := &p.Arrays[ai]
		ac := &img.Arrays[ai]
		ac.Mode, ac.Depth = plan.Mode, uint8(plan.Depth)
		if len(plan.Tiles) > arch.TilesPerArray {
			return nil, fmt.Errorf("bitstream: array %d has %d tiles, more than %d", ai, len(plan.Tiles), arch.TilesPerArray)
		}
		ac.Tiles = make([]*TileConfig, len(plan.Tiles))
		var reused uint32
		if base != nil && ai < len(base.Arrays) && base.Arrays[ai].Mode == plan.Mode && len(base.Arrays[ai].Tiles) == len(plan.Tiles) {
			reused = plan.Reused
		}
		if reused&arch.GlobalSwitchBit != 0 {
			ac.GlobalSwitch, ac.switchCRC = base.Arrays[ai].GlobalSwitch, base.Arrays[ai].switchCRC
		} else {
			ac.GlobalSwitch = new([256 * 256 / 8]byte)
		}
		for ti := range plan.Tiles {
			if reused>>ti&1 != 0 {
				ac.Tiles[ti] = base.Arrays[ai].Tiles[ti]
				continue
			}
			ac.Tiles[ti] = &TileConfig{Mode: plan.Mode, HasInitial: plan.Tiles[ti].HasInitial}
		}
		visit := plan.Regexes
		if reused&arch.GlobalSwitchBit != 0 {
			if seen == nil {
				seen, written = make([]uint64, (len(res.Regexes)+63)/64), make([]int, 0, len(plan.Regexes))
			}
			written = touching(plan, reused, seen, written[:0])
			visit = written
		}
		var err error
		switch plan.Mode {
		case arch.ModeNFA:
			err = buildNFAArray(res, plan, ai, visit, ac, reused)
		case arch.ModeNBVA:
			err = buildNBVAArray(res, plan, visit, ac, reused)
		case arch.ModeLNFA:
			err = buildLNFAArray(res, plan, ac, reused)
		default:
			err = fmt.Errorf("bitstream: unknown mode %v", plan.Mode)
		}
		if err != nil {
			return nil, err
		}
		for ti, t := range ac.Tiles {
			if reused>>ti&1 == 0 {
				t.seal()
			}
		}
		if reused&arch.GlobalSwitchBit == 0 {
			ac.sealSwitch()
		}
	}
	return img, nil
}

// touching appends to out the regexes of plan with a state on a tile
// reused does not mark, in plan order. seen, bit r for regex r, is all
// zero on entry and on return.
func touching(plan *arch.ArrayPlan, reused uint32, seen []uint64, out []int) []int {
	for ti := range plan.Tiles {
		if reused>>ti&1 == 0 {
			for _, r := range plan.Tiles[ti].Regexes {
				seen[r/64] |= 1 << (r % 64)
			}
		}
	}
	for _, r := range plan.Regexes {
		if seen[r/64]>>(r%64)&1 != 0 {
			out = append(out, r)
			seen[r/64] &^= 1 << (r % 64)
		}
	}
	return out
}

// buildNFAArray lays the states of regexes out on their slots (the
// mapper's) and programs the transfer function: in-tile edges in the local
// switch, cross-tile edges through the global switch ports. What reused
// marks is already in place. A global port is one state's line into the
// switch: two slots of array ai that would share one are an error, where
// the switch would merge their edges.
func buildNFAArray(res *compile.Result, plan *arch.ArrayPlan, ai int, regexes []int, ac *ArrayConfig, reused uint32) error {
	var owner [256]int // slot+1 of the state on each global port
	claim := func(port, slot int) error {
		if o := owner[port]; o != 0 && o != slot+1 {
			return fmt.Errorf("bitstream: array %d global port %d is shared by slots %d and %d", ai, port, o-1, slot)
		}
		owner[port] = slot + 1
		return nil
	}
	for _, ri := range regexes {
		c := &res.Regexes[ri]
		if c.NFA == nil {
			return fmt.Errorf("bitstream: regex %d lacks NFA payload", ri)
		}
		base := plan.SlotOf(ri) // states take consecutive slots
		if base+c.NFA.NumStates() > len(ac.Tiles)*arch.TileSTEs {
			return fmt.Errorf("bitstream: state overflow in array")
		}
		codes := c.CAMCodes()
		for q, s := range c.NFA.States {
			src := base + q
			tc := ac.Tiles[src/arch.TileSTEs]
			local := reused>>(src/arch.TileSTEs)&1 == 0
			if local {
				tc.ColRole[src%arch.TileSTEs] = ColCC
				tc.CAMCodes[src%arch.TileSTEs] = codes[q]
			}
			for _, succ := range s.Follow {
				dst := base + succ
				if src/arch.TileSTEs == dst/arch.TileSTEs {
					if local {
						setBit(tc.LocalSwitch[:], src%arch.TileSTEs, dst%arch.TileSTEs, arch.TileSTEs)
					}
				} else if reused&arch.GlobalSwitchBit == 0 {
					// Cross-tile edge: through global ports. Each tile has
					// GlobalPortsPerTile ports; the port is the state's
					// column modulo the port count.
					from, to := globalPort(src), globalPort(dst)
					if max(from, to) >= 256 {
						return fmt.Errorf("bitstream: regex %d crosses tiles past the global switch's 256 ports", ri)
					}
					if err := claim(from, src); err != nil {
						return err
					}
					if err := claim(to, dst); err != nil {
						return err
					}
					setBit(ac.GlobalSwitch[:], from, to, 256)
				}
			}
		}
	}
	return nil
}

func globalPort(slot int) int {
	tile := slot / arch.TileSTEs
	return tile*arch.GlobalPortsPerTile + (slot%arch.TileSTEs)%arch.GlobalPortsPerTile
}

// buildNBVAArray lays columns out canonically per tile: CC columns, then
// init-vector columns, then BV columns; BV actions are encoded in the
// local switch's BV region (§3.1's shift/copy/set1 schemes are
// represented by programming the diagonal of the BV cross-point region).
// The tiles reused marks are already in place; regexes are the ones with
// a state on a tile it does not mark, in placement order.
func buildNBVAArray(res *compile.Result, plan *arch.ArrayPlan, regexes []int, ac *ArrayConfig, reused uint32) error {
	// The written tiles' bit-vector tables are cut from one slab.
	n := 0
	for ti := range plan.Tiles {
		if reused>>ti&1 == 0 {
			n += len(plan.Tiles[ti].BVs)
		}
	}
	slab := make([]BVConfig, n)
	for ti := range plan.Tiles {
		if reused>>ti&1 != 0 {
			continue
		}
		tp := &plan.Tiles[ti]
		tc := ac.Tiles[ti]
		col := 0
		place := func(role byte, n int) int {
			start := col
			for k := 0; k < n; k++ {
				if col >= arch.TileSTEs {
					return -1
				}
				tc.ColRole[col] = role
				col++
			}
			return start
		}
		if place(ColCC, tp.CCColumns) < 0 || place(ColInit, tp.InitColumns) < 0 {
			return fmt.Errorf("bitstream: tile %d column overflow", ti)
		}
		if len(tp.BVs) > 0 {
			tc.BVs, slab = slab[:0:len(tp.BVs)], slab[len(tp.BVs):]
		}
		for _, bv := range tp.BVs {
			start := place(ColBV, bv.Width)
			if start < 0 {
				return fmt.Errorf("bitstream: tile %d BV overflow", ti)
			}
			readAll := bv.Read != 0
			tc.BVs = append(tc.BVs, BVConfig{
				FirstColumn: uint8(start),
				Width:       uint8(bv.Width),
				Depth:       uint8(bv.Depth),
				ReadAll:     readAll,
				Size:        uint16(bv.Size),
			})
			// Shift-action encoding (§3.1, Fig 5): route bit i of the BV
			// word to position i+1; the last bit goes through the
			// auxiliary register back to the first column.
			for k := 0; k < bv.Width; k++ {
				dst := start + (k+1)%bv.Width
				setBit(tc.LocalSwitch[:], start+k, dst, arch.TileSTEs)
			}
		}
	}

	// The character classes fill each tile's CC columns (which start at
	// column 0) in placement order, regex by regex and state by state: a
	// standard STE sits in its TileOf tile, and every chunk of a (possibly
	// split) BV-STE carries a CC column in the chunk's own tile. The mapper
	// appends a tile's BVs in that same order, so a cursor per tile finds
	// the chunks of the BV-STE at hand without an index.
	var ccNext [arch.TilesPerArray]int // next free CC column
	var bvNext [arch.TilesPerArray]int // next entry of the tile's BVs
	put := func(ti int, code uint32) error {
		if ccNext[ti] >= plan.Tiles[ti].CCColumns {
			return fmt.Errorf("bitstream: tile %d has more classes than its %d CC columns", ti, plan.Tiles[ti].CCColumns)
		}
		ac.Tiles[ti].CAMCodes[ccNext[ti]] = code
		ccNext[ti]++
		return nil
	}
	for _, ri := range regexes {
		c := &res.Regexes[ri]
		if c.NBVA == nil {
			return fmt.Errorf("bitstream: regex %d lacks NBVA payload", ri)
		}
		codes := c.CAMCodes()
		for q, s := range c.NBVA.States {
			if s.BV == nil {
				if ti, ok := plan.TileOf(arch.StateRef{Regex: ri, State: q}); ok && reused>>ti&1 == 0 {
					if err := put(ti, codes[q]); err != nil {
						return err
					}
				}
				continue
			}
			for ti := range plan.Tiles {
				if reused>>ti&1 != 0 {
					continue
				}
				for bvs := plan.Tiles[ti].BVs; bvNext[ti] < len(bvs) && bvs[bvNext[ti]].Regex == ri && bvs[bvNext[ti]].STE == q; bvNext[ti]++ {
					if err := put(ti, codes[q]); err != nil {
						return err
					}
				}
			}
		}
	}
	for ti := range plan.Tiles {
		if reused>>ti&1 == 0 && bvNext[ti] != len(plan.Tiles[ti].BVs) {
			return fmt.Errorf("bitstream: tile %d lists its bit vectors out of placement order", ti)
		}
	}
	return nil
}

// buildLNFAArray stores CAM-mapped sequences as 32-bit codes in CAM
// columns and switch-mapped sequences as one-hot codes across two switch
// columns (§3.2). Bin holes hold nothing, and the tiles reused marks are
// already in place.
func buildLNFAArray(res *compile.Result, plan *arch.ArrayPlan, ac *ArrayConfig, reused uint32) error {
	var camCursor, switchCursor [arch.TilesPerArray]int
	for bi := range plan.Bins {
		bin := &plan.Bins[bi]
		var tiles uint32
		for _, t := range bin.Tiles {
			tiles |= 1 << t
		}
		if tiles&^reused == 0 {
			continue // every tile the bin holds is in place
		}
		for _, ref := range bin.Seqs {
			if ref == arch.Hole {
				continue
			}
			c := &res.Regexes[ref[0]]
			if ref[1] >= len(c.Seqs) {
				return fmt.Errorf("bitstream: bad sequence ref %v", ref)
			}
			seq, codes := c.Seqs[ref[1]], c.CAMCodes()
			for _, s := range c.Seqs[:ref[1]] {
				codes = codes[len(s.Classes):]
			}
			region := bin.RegionSize()
			for j, cls := range seq.Classes {
				tIdx := (bin.StartOffset + j) / region
				if tIdx >= len(bin.Tiles) {
					tIdx = len(bin.Tiles) - 1
				}
				tile := bin.Tiles[tIdx]
				if reused>>tile&1 != 0 {
					continue
				}
				tc := ac.Tiles[tile]
				if bin.CAMMapped {
					col := camCursor[tile]
					if col >= arch.TileSTEs {
						return fmt.Errorf("bitstream: LNFA CAM overflow in tile %d", tile)
					}
					tc.ColRole[col] = ColCC
					tc.CAMCodes[col] = codes[j]
					camCursor[tile]++
				} else {
					slotIdx := switchCursor[tile]
					if slotIdx >= arch.SwitchLNFASlots {
						return fmt.Errorf("bitstream: LNFA switch overflow in tile %d", tile)
					}
					// One-hot code: 256 bits over two 128-bit switch
					// columns (2*slot, 2*slot+1). Row r bit set iff byte
					// value (half*128 + r) is in the class — read off the
					// class's words a set bit at a time.
					for w, word := range cls {
						for ; word != 0; word &= word - 1 {
							b := w*64 + bits.TrailingZeros64(word)
							setBit(tc.LocalSwitch[:], b%128, 2*slotIdx+b/128, arch.TileSTEs)
						}
					}
					switchCursor[tile]++
				}
			}
		}
	}
	return nil
}

// --- serialization ---

const (
	magic   = 0x52415042 // "RAPB"
	version = 1
)

// Sizes of the fixed parts of the wire layout.
const (
	imageHeaderBytes = 4 + 2 + 2 // magic, version, array count
	arrayHeaderBytes = 1 + 1 + 2 // mode, depth, tile count
	tileFixedBytes   = 1 + 1 + arch.TileSTEs + 4*arch.TileSTEs + 2 + arch.TileSTEs*arch.TileSTEs/8
	// BVBytes is the wire size of one BVConfig.
	BVBytes  = 1 + 1 + 1 + 1 + 2
	crcBytes = 4
)

// SizeBytes returns the length of the array's wire form.
func (a *ArrayConfig) SizeBytes() int {
	n := arrayHeaderBytes + len(a.GlobalSwitch)
	for i := range a.Tiles {
		n += tileFixedBytes + BVBytes*len(a.Tiles[i].BVs)
	}
	return n
}

// MarshalBinary serializes the image with a trailing CRC-32.
func (img *Image) MarshalBinary() ([]byte, error) {
	b := img.appendHeader(make([]byte, 0, img.SizeBytes()))
	for i := range img.Arrays {
		b = img.Arrays[i].AppendBinary(b)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

func (img *Image) appendHeader(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, magic)
	b = le.AppendUint16(b, version)
	return le.AppendUint16(b, uint16(len(img.Arrays)))
}

// AppendBinary appends the array's wire form — header, tiles, global
// switch — to b. The image format and the delta format's ArrayReplace
// records (internal/reconfig) both carry arrays in it.
func (a *ArrayConfig) AppendBinary(b []byte) []byte {
	b = a.appendHeader(b)
	for _, t := range a.Tiles {
		b = append(t.appendHead(b), t.LocalSwitch[:]...)
	}
	return append(b, a.GlobalSwitch[:]...)
}

func (a *ArrayConfig) appendHeader(b []byte) []byte {
	b = append(b, uint8(a.Mode), a.Depth)
	return binary.LittleEndian.AppendUint16(b, uint16(len(a.Tiles)))
}

// appendHead appends the tile's wire form up to its local switch.
func (t *TileConfig) appendHead(b []byte) []byte {
	le := binary.LittleEndian
	flags := uint8(0)
	if t.HasInitial {
		flags |= 1
	}
	b = append(b, uint8(t.Mode), flags)
	b = append(b, t.ColRole[:]...)
	for _, code := range &t.CAMCodes {
		b = le.AppendUint32(b, code)
	}
	b = le.AppendUint16(b, uint16(len(t.BVs)))
	for _, bv := range t.BVs {
		b = bv.AppendBinary(b)
	}
	return b
}

// AppendBinary appends the bit vector's wire form to b.
func (bv BVConfig) AppendBinary(b []byte) []byte {
	readAll := uint8(0)
	if bv.ReadAll {
		readAll = 1
	}
	b = append(b, bv.FirstColumn, bv.Width, bv.Depth, readAll)
	return binary.LittleEndian.AppendUint16(b, bv.Size)
}

// Parse deserializes and verifies an image.
func Parse(data []byte) (*Image, error) {
	d, err := Open(data, magic, version)
	if err != nil {
		return nil, err
	}
	img := &Image{Arrays: make([]ArrayConfig, d.bound(int64(d.U16()), arrayHeaderBytes+256*256/8))}
	for i := range img.Arrays {
		d.Array(&img.Arrays[i])
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return img, nil
}

// Validate checks the structural invariants a loader relies on: column
// roles consistent with the BV metadata, CC columns carrying codes, BV
// extents inside the tile, and depths within the CAM row budget.
func (img *Image) Validate() error {
	for ai := range img.Arrays {
		a := &img.Arrays[ai]
		if a.Depth > arch.CAMRows {
			return fmt.Errorf("bitstream: array %d depth %d > %d", ai, a.Depth, arch.CAMRows)
		}
		for ti := range a.Tiles {
			t := a.Tiles[ti]
			for col, role := range t.ColRole {
				switch role {
				case ColCC:
					if t.CAMCodes[col] == 0 {
						return fmt.Errorf("bitstream: array %d tile %d col %d: CC without code", ai, ti, col)
					}
				case ColUnused:
					if t.CAMCodes[col] != 0 {
						return fmt.Errorf("bitstream: array %d tile %d col %d: code on unused column", ai, ti, col)
					}
				}
			}
			for bi, bv := range t.BVs {
				if bv.Width == 0 {
					return fmt.Errorf("bitstream: array %d tile %d BV %d: zero width", ai, ti, bi)
				}
				end := int(bv.FirstColumn) + int(bv.Width)
				if end > arch.TileSTEs {
					return fmt.Errorf("bitstream: array %d tile %d BV %d: extent %d", ai, ti, bi, end)
				}
				for c := int(bv.FirstColumn); c < end; c++ {
					if t.ColRole[c] != ColBV {
						return fmt.Errorf("bitstream: array %d tile %d col %d: not marked BV", ai, ti, c)
					}
				}
				if int(bv.Size) > int(bv.Width)*int(bv.Depth) {
					return fmt.Errorf("bitstream: array %d tile %d BV %d: size %d exceeds width×depth", ai, ti, bi, bv.Size)
				}
			}
		}
	}
	return nil
}

// Stats summarizes an image for reporting.
type Stats struct {
	Arrays     int
	Tiles      int
	CCColumns  int
	BVColumns  int
	SwitchDots int // programmed local-switch cross points
	GlobalDots int
	SizeBytes  int
}

// Summarize computes image statistics.
func (img *Image) Summarize() Stats {
	s := Stats{Arrays: len(img.Arrays), SizeBytes: img.SizeBytes()}
	for ai := range img.Arrays {
		a := &img.Arrays[ai]
		s.Tiles += len(a.Tiles)
		for ti := range a.Tiles {
			t := a.Tiles[ti]
			for _, role := range t.ColRole {
				switch role {
				case ColCC:
					s.CCColumns++
				case ColBV:
					s.BVColumns++
				}
			}
			for _, b := range t.LocalSwitch {
				s.SwitchDots += popcount(b)
			}
		}
		for _, b := range a.GlobalSwitch {
			s.GlobalDots += popcount(b)
		}
	}
	return s
}

func popcount(b byte) int {
	n := 0
	for b != 0 {
		n++
		b &= b - 1
	}
	return n
}
