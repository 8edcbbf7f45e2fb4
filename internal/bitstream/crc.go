package bitstream

import (
	"hash/crc32"
	"sync"

	"repro/internal/arch"
)

// An image's CRC-32 is folded from the CRCs of its tiles and global
// switches, each taken once when the tile or switch is built (seal) and
// shared with it across generations: a rebuilt image's CRC costs the
// bytes its update wrote plus one CRC-32 combine (zlib's crc32_combine)
// per tile and switch, not a pass over the serialized image.

// multModP returns a·b modulo the CRC-32 (IEEE) polynomial, both operands
// and the result in the reflected bit order of crc32.IEEETable.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.IEEE
		} else {
			b >>= 1
		}
	}
	return p
}

// shiftOf returns x^(8n) modulo the polynomial: multModP by it moves a CRC
// past n bytes, which is what appending n bytes does to the CRC of what
// comes before them.
func shiftOf(n int) uint32 {
	p, sq := uint32(1)<<31, uint32(1)<<23 // x^0, x^8
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			p = multModP(sq, p)
		}
		sq = multModP(sq, sq)
	}
	return p
}

// tileShifts[k] is the shift past a tile with k bit vectors, and
// switchShift the shift past a global switch: the wire lengths CRC folds.
var tileShifts, switchShift = func() ([arch.TileSTEs + 1]uint32, uint32) {
	var s [arch.TileSTEs + 1]uint32
	s[0] = shiftOf(tileFixedBytes)
	bv := shiftOf(BVBytes)
	for k := 1; k < len(s); k++ {
		s[k] = multModP(s[k-1], bv)
	}
	return s, shiftOf(256 * 256 / 8)
}()

// combine returns the CRC-32 of a‖b from crcA and crcB, given shift, b's
// shiftOf.
func combine(crcA, crcB, shift uint32) uint32 { return multModP(shift, crcA) ^ crcB }

// heads holds the buffers update copies a tile's head into: a buffer
// handed to crc32 does not stay on the stack.
var heads = sync.Pool{New: func() any { return new([]byte) }}

// update folds the tile's wire form, as ArrayConfig.AppendBinary writes it,
// into crc; only the part before the local switch is copied.
func (t *TileConfig) update(crc uint32) uint32 {
	bp := heads.Get().(*[]byte)
	b := t.appendHead((*bp)[:0])
	crc = crc32.Update(crc, crc32.IEEETable, b)
	*bp = b
	heads.Put(bp)
	return crc32.Update(crc, crc32.IEEETable, t.LocalSwitch[:])
}

// updateHeader is crc32.Update for the few bytes of a header, a byte at a
// time, so that their buffer stays on the stack.
func updateHeader(crc uint32, p []byte) uint32 {
	crc = ^crc
	for _, v := range p {
		crc = crc32.IEEETable[byte(crc)^v] ^ crc>>8
	}
	return ^crc
}

// seal takes the tile's CRC. It runs once, when the tile is built or
// decoded: a sealed tile is never written, and is shared as it is.
func (t *TileConfig) seal() { t.crc = 1<<32 | uint64(t.update(0)) }

// fold appends the tile to crc, from its sealed CRC when it has one.
func (t *TileConfig) fold(crc uint32) uint32 {
	if t.crc == 0 {
		return t.update(crc)
	}
	if k := len(t.BVs); k < len(tileShifts) {
		return combine(crc, uint32(t.crc), tileShifts[k])
	}
	return combine(crc, uint32(t.crc), shiftOf(tileFixedBytes+BVBytes*len(t.BVs)))
}

// sealSwitch takes the global switch's CRC, as seal does a tile's.
func (a *ArrayConfig) sealSwitch() {
	a.switchCRC = 1<<32 | uint64(crc32.ChecksumIEEE(a.GlobalSwitch[:]))
}

// Seal takes the CRC of every tile and of the global switch of a, which
// its writer has finished: reconfig.Apply seals what it cloned and wrote.
func (a *ArrayConfig) Seal() {
	for _, t := range a.Tiles {
		t.seal()
	}
	a.sealSwitch()
}

// Clone returns a copy of a that owns its tiles and global switch, for a
// writer to change and then Seal. The bit-vector tables are shared: a
// writer replaces a tile's table, never writes into it.
func (a *ArrayConfig) Clone() ArrayConfig {
	out := *a
	out.Tiles = make([]*TileConfig, len(a.Tiles))
	for i, t := range a.Tiles {
		c := *t
		c.crc = 0
		out.Tiles[i] = &c
	}
	gs := *a.GlobalSwitch
	out.GlobalSwitch, out.switchCRC = &gs, 0
	return out
}

// CRC returns the CRC-32 MarshalBinary puts in the image's trailer — the
// image's identity in a reconfiguration delta — without serializing the
// image: the headers are checksummed and each tile's and global switch's
// sealed CRC is combined in (an unsealed one is read instead). It is
// taken once: a served image is the target of one delta and the base of
// the next.
func (img *Image) CRC() uint32 {
	if v := img.crc.Load(); v != 0 {
		return uint32(v)
	}
	var head [imageHeaderBytes]byte
	crc := updateHeader(0, img.appendHeader(head[:0]))
	for i := range img.Arrays {
		a := &img.Arrays[i]
		var ah [arrayHeaderBytes]byte
		crc = updateHeader(crc, a.appendHeader(ah[:0]))
		for _, t := range a.Tiles {
			crc = t.fold(crc)
		}
		if a.switchCRC == 0 {
			crc = crc32.Update(crc, crc32.IEEETable, a.GlobalSwitch[:])
		} else {
			crc = combine(crc, uint32(a.switchCRC), switchShift)
		}
	}
	img.crc.Store(1<<32 | uint64(crc))
	return crc
}
