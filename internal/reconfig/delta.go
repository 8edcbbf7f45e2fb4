// Package reconfig models live reconfiguration of a deployed RAP fabric:
// turning a ruleset update into the minimal set of configuration writes,
// costing those writes through the §3.3 I/O path, and scheduling the
// per-array quiesce-drain-reload so untouched arrays keep matching.
//
// The paper deploys a full image once ("the hardware configuration is
// pre-loaded to RAP during deployment", §3.3) — but a production fabric
// serving rotating rulesets pays a real configuration cost per update
// (CAMA's CAM rewrite path). This package makes that cost a first-class,
// measurable quantity: Diff produces a delta bitstream of per-tile /
// per-array update records, Apply replays it bit-exactly, CostOf prices
// it against hwmodel constants, and Schedule plans the reload window.
package reconfig

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/bitstream"
)

// localRowBytes is the byte width of one 128-bit local-switch row.
const localRowBytes = arch.TileSTEs / 8

// globalRowBytes is the byte width of one 256-bit global-switch row.
const globalRowBytes = 256 / 8

// ArrayReplace carries a whole new array configuration; emitted when an
// array is structurally new (added, or its tile count changed) and a
// record-level diff cannot express the change.
type ArrayReplace struct {
	Array  int
	Config bitstream.ArrayConfig
}

// HeaderUpdate rewrites an array's mode/depth header.
type HeaderUpdate struct {
	Array int
	Mode  arch.Mode
	Depth uint8
}

// TileMetaUpdate rewrites one tile's mode, flags and BV metadata table.
// BV metadata is replaced wholesale: it is a handful of bytes per tile,
// and partial BV-table rewrites are not a hardware operation.
type TileMetaUpdate struct {
	Array, Tile int
	Mode        arch.Mode
	HasInitial  bool
	BVs         []bitstream.BVConfig
}

// CodeUpdate rewrites one CAM column: its role and its 32-bit code. This
// is the unit CAMA-style hardware updates in — one column write of
// arch.CAMRows bits.
type CodeUpdate struct {
	Array, Tile int
	Col         uint8
	Role        byte
	Code        uint32
}

// LocalRowUpdate rewrites one 128-bit row of a tile's local switch.
type LocalRowUpdate struct {
	Array, Tile int
	Row         uint8
	Bits        [localRowBytes]byte
}

// GlobalRowUpdate rewrites one 256-bit row of an array's global switch.
type GlobalRowUpdate struct {
	Array int
	Row   uint8
	Bits  [globalRowBytes]byte
}

// Delta is the difference between two deployment images, expressed as
// hardware-granularity update records. Applying it to the base image
// reproduces the target image bit-exactly; BaseCRC/TargetCRC pin both
// endpoints so a delta can never be applied to the wrong fabric state.
type Delta struct {
	BaseCRC   uint32 // CRC-32 of the marshalled base image
	TargetCRC uint32 // CRC-32 of the marshalled target image
	NumArrays int    // array count of the target image

	Replaces   []ArrayReplace
	Headers    []HeaderUpdate
	TileMetas  []TileMetaUpdate
	Codes      []CodeUpdate
	LocalRows  []LocalRowUpdate
	GlobalRows []GlobalRowUpdate
}

// Diff computes the update records turning old into new. Arrays present
// in both images with identical tile counts diff at record granularity;
// structurally changed or added arrays become full ArrayReplace records;
// arrays dropped from the target are expressed by NumArrays alone (the
// freed arrays are simply unprogrammed). BaseCRC/TargetCRC are the CRC-32
// each image's serialized form carries in its trailer. A tile or global
// switch the two images share by pointer (bitstream.Rebuild's reuse) is
// equal without being compared, and every other tile is compared once.
func Diff(old, new *bitstream.Image) *Delta {
	d := &Delta{
		BaseCRC:   old.CRC(),
		TargetCRC: new.CRC(),
		NumArrays: len(new.Arrays),
	}
	// Tile records are nearly all of a delta's: the pass that compares the
	// tiles keeps where they differ, so each list is allocated once, at its
	// length, and written from that.
	var buf [32]tileDiff
	diffs := buf[:0]
	var metas, codes, rows int
	for ai := range new.Arrays {
		if !sameShape(old, new, ai) {
			continue
		}
		for ti, nt := range new.Arrays[ai].Tiles {
			if td, ok := diffTile(ai, ti, old.Arrays[ai].Tiles[ti], nt); ok {
				diffs = append(diffs, td)
				if td.meta {
					metas++
				}
				codes += bits.OnesCount64(td.cols[0]) + bits.OnesCount64(td.cols[1])
				rows += bits.OnesCount64(td.rows[0]) + bits.OnesCount64(td.rows[1])
			}
		}
	}
	if metas > 0 {
		d.TileMetas = make([]TileMetaUpdate, 0, metas)
	}
	if codes > 0 {
		d.Codes = make([]CodeUpdate, 0, codes)
	}
	if rows > 0 {
		d.LocalRows = make([]LocalRowUpdate, 0, rows)
	}
	for i := range diffs {
		diffs[i].records(d)
	}
	for ai := range new.Arrays {
		na := &new.Arrays[ai]
		if !sameShape(old, new, ai) {
			// The image's tiles are never written, so the record shares them.
			d.Replaces = append(d.Replaces, ArrayReplace{Array: ai, Config: *na})
			continue
		}
		oa := &old.Arrays[ai]
		if oa.Mode != na.Mode || oa.Depth != na.Depth {
			d.Headers = append(d.Headers, HeaderUpdate{Array: ai, Mode: na.Mode, Depth: na.Depth})
		}
		if oa.GlobalSwitch == na.GlobalSwitch || *oa.GlobalSwitch == *na.GlobalSwitch {
			continue
		}
		for row := 0; row < 256; row++ {
			o := oa.GlobalSwitch[row*globalRowBytes : (row+1)*globalRowBytes]
			n := na.GlobalSwitch[row*globalRowBytes : (row+1)*globalRowBytes]
			if !bytes.Equal(o, n) {
				u := GlobalRowUpdate{Array: ai, Row: uint8(row)}
				copy(u.Bits[:], n)
				d.GlobalRows = append(d.GlobalRows, u)
			}
		}
	}
	return d
}

// sameShape reports whether array ai exists in both images with one tile
// count, so that it diffs record by record instead of being replaced.
func sameShape(old, new *bitstream.Image, ai int) bool {
	return ai < len(old.Arrays) && len(old.Arrays[ai].Tiles) == len(new.Arrays[ai].Tiles)
}

// tileDiff is where one tile of the target differs from the base: its
// metadata, and a bit per CAM column and per local-switch row.
type tileDiff struct {
	array, tile int
	nt          *bitstream.TileConfig
	meta        bool
	cols, rows  [arch.TileSTEs / 64]uint64
}

// diffTile compares two tiles once and reports where they differ, or
// false when they do not. A tile the images share costs nothing, and an
// unchanged copy one comparison of each fixed-size table.
func diffTile(ai, ti int, ot, nt *bitstream.TileConfig) (tileDiff, bool) {
	td := tileDiff{array: ai, tile: ti, nt: nt}
	if ot == nt {
		return td, false
	}
	td.meta = ot.Mode != nt.Mode || ot.HasInitial != nt.HasInitial || !bvsEqual(ot.BVs, nt.BVs)
	if ot.ColRole != nt.ColRole || ot.CAMCodes != nt.CAMCodes {
		for col := 0; col < arch.TileSTEs; col++ {
			if ot.ColRole[col] != nt.ColRole[col] || ot.CAMCodes[col] != nt.CAMCodes[col] {
				td.cols[col/64] |= 1 << (col % 64)
			}
		}
	}
	if ot.LocalSwitch != nt.LocalSwitch {
		// Eight bytes at a time: a row is two words.
		le := binary.LittleEndian
		for w := 0; w < len(nt.LocalSwitch)/8; w++ {
			if le.Uint64(ot.LocalSwitch[8*w:]) != le.Uint64(nt.LocalSwitch[8*w:]) {
				row := w * 8 / localRowBytes
				td.rows[row/64] |= 1 << (row % 64)
			}
		}
	}
	var none [arch.TileSTEs / 64]uint64
	return td, td.meta || td.cols != none || td.rows != none
}

// records appends the tile's update records to d.
func (td *tileDiff) records(d *Delta) {
	nt := td.nt
	if td.meta {
		d.TileMetas = append(d.TileMetas, TileMetaUpdate{
			Array: td.array, Tile: td.tile,
			Mode:       nt.Mode,
			HasInitial: nt.HasInitial,
			BVs:        nt.BVs, // never written, as the tile is not
		})
	}
	for w, m := range td.cols {
		for ; m != 0; m &= m - 1 {
			col := w*64 + bits.TrailingZeros64(m)
			d.Codes = append(d.Codes, CodeUpdate{
				Array: td.array, Tile: td.tile, Col: uint8(col),
				Role: nt.ColRole[col], Code: nt.CAMCodes[col],
			})
		}
	}
	for w, m := range td.rows {
		for ; m != 0; m &= m - 1 {
			row := w*64 + bits.TrailingZeros64(m)
			u := LocalRowUpdate{Array: td.array, Tile: td.tile, Row: uint8(row)}
			copy(u.Bits[:], nt.LocalSwitch[row*localRowBytes:])
			d.LocalRows = append(d.LocalRows, u)
		}
	}
}

func bvsEqual(a, b []bitstream.BVConfig) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Apply replays a delta onto a base image and returns the target image.
// It refuses to run against the wrong base (BaseCRC mismatch) and
// verifies the result against TargetCRC, so a successful Apply guarantees
// bit-exact reconstruction. The target is a copy: old, whose tiles and
// switches may be shared with other images, is never written.
func Apply(old *bitstream.Image, d *Delta) (*bitstream.Image, error) {
	if got := old.CRC(); got != d.BaseCRC {
		return nil, fmt.Errorf("reconfig: base image CRC %08x does not match delta base %08x", got, d.BaseCRC)
	}
	// Every array past the base's needs a replacement record: refuse a
	// count they cannot cover before allocating for it.
	if d.NumArrays > len(old.Arrays)+len(d.Replaces) {
		return nil, fmt.Errorf("reconfig: delta grows %d arrays to %d with %d replacements", len(old.Arrays), d.NumArrays, len(d.Replaces))
	}
	img := &bitstream.Image{Arrays: make([]bitstream.ArrayConfig, d.NumArrays)}
	replaced := make([]bool, d.NumArrays)
	for i := 0; i < d.NumArrays && i < len(old.Arrays); i++ {
		img.Arrays[i] = old.Arrays[i].Clone()
	}
	for _, r := range d.Replaces {
		if r.Array < 0 || r.Array >= d.NumArrays {
			return nil, fmt.Errorf("reconfig: replace targets array %d of %d", r.Array, d.NumArrays)
		}
		img.Arrays[r.Array] = r.Config.Clone()
		replaced[r.Array] = true
	}
	for i := len(old.Arrays); i < d.NumArrays; i++ {
		if !replaced[i] {
			return nil, fmt.Errorf("reconfig: delta grows to %d arrays but lacks a payload for array %d", d.NumArrays, i)
		}
	}
	for _, h := range d.Headers {
		a, err := applyArray(img, h.Array)
		if err != nil {
			return nil, err
		}
		a.Mode, a.Depth = h.Mode, h.Depth
	}
	for _, m := range d.TileMetas {
		t, err := applyTile(img, m.Array, m.Tile)
		if err != nil {
			return nil, err
		}
		t.Mode, t.HasInitial = m.Mode, m.HasInitial
		t.BVs = append([]bitstream.BVConfig(nil), m.BVs...)
	}
	for _, c := range d.Codes {
		t, err := applyTile(img, c.Array, c.Tile)
		if err != nil {
			return nil, err
		}
		t.ColRole[c.Col] = c.Role
		t.CAMCodes[c.Col] = c.Code
	}
	for _, r := range d.LocalRows {
		t, err := applyTile(img, r.Array, r.Tile)
		if err != nil {
			return nil, err
		}
		copy(t.LocalSwitch[int(r.Row)*localRowBytes:], r.Bits[:])
	}
	for _, r := range d.GlobalRows {
		a, err := applyArray(img, r.Array)
		if err != nil {
			return nil, err
		}
		copy(a.GlobalSwitch[int(r.Row)*globalRowBytes:], r.Bits[:])
	}
	for i := range img.Arrays {
		img.Arrays[i].Seal()
	}
	if got := img.CRC(); got != d.TargetCRC {
		return nil, fmt.Errorf("reconfig: applied image CRC %08x does not match delta target %08x", got, d.TargetCRC)
	}
	return img, nil
}

func applyArray(img *bitstream.Image, ai int) (*bitstream.ArrayConfig, error) {
	if ai < 0 || ai >= len(img.Arrays) {
		return nil, fmt.Errorf("reconfig: record targets array %d of %d", ai, len(img.Arrays))
	}
	return &img.Arrays[ai], nil
}

func applyTile(img *bitstream.Image, ai, ti int) (*bitstream.TileConfig, error) {
	a, err := applyArray(img, ai)
	if err != nil {
		return nil, err
	}
	if ti < 0 || ti >= len(a.Tiles) {
		return nil, fmt.Errorf("reconfig: record targets tile %d of %d in array %d", ti, len(a.Tiles), ai)
	}
	return a.Tiles[ti], nil
}

// Records returns the total number of update records in the delta.
func (d *Delta) Records() int {
	return len(d.Replaces) + len(d.Headers) + len(d.TileMetas) +
		len(d.Codes) + len(d.LocalRows) + len(d.GlobalRows)
}

// TouchedArrays returns the indices of arrays the delta writes to, in
// ascending order. Arrays outside this set keep matching during the
// reconfiguration (the scheduler's no-stall set).
func (d *Delta) TouchedArrays() []int {
	_, loads := d.account()
	out := make([]int, len(loads))
	for i, l := range loads {
		out[i] = l.array
	}
	return out
}
