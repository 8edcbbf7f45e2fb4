package reconfig

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/arch"
	"repro/internal/bitstream"
)

// Delta wire format: little-endian, magic "RAPD", version, base/target
// CRCs, the six record sections (each a u32 count followed by fixed-layout
// records), and a trailing CRC-32 over everything before it — the
// envelope of the full image format too, which bitstream.Open checks for
// both.
const (
	deltaMagic   = 0x52415044 // "RAPD"
	deltaVersion = 1
)

// MarshalBinary serializes the delta.
func (d *Delta) MarshalBinary() ([]byte, error) {
	le := binary.LittleEndian
	b := le.AppendUint32(make([]byte, 0, d.SizeBytes()), deltaMagic)
	b = le.AppendUint16(b, deltaVersion)
	b = le.AppendUint32(b, d.BaseCRC)
	b = le.AppendUint32(b, d.TargetCRC)
	b = le.AppendUint16(b, uint16(d.NumArrays))

	b = le.AppendUint32(b, uint32(len(d.Replaces)))
	for i := range d.Replaces {
		b = le.AppendUint16(b, uint16(d.Replaces[i].Array))
		b = d.Replaces[i].Config.AppendBinary(b)
	}
	b = le.AppendUint32(b, uint32(len(d.Headers)))
	for _, h := range d.Headers {
		b = le.AppendUint16(b, uint16(h.Array))
		b = append(b, uint8(h.Mode), h.Depth)
	}
	b = le.AppendUint32(b, uint32(len(d.TileMetas)))
	for _, m := range d.TileMetas {
		b = le.AppendUint16(b, uint16(m.Array))
		b = le.AppendUint16(b, uint16(m.Tile))
		flags := uint8(0)
		if m.HasInitial {
			flags |= 1
		}
		b = append(b, uint8(m.Mode), flags)
		b = le.AppendUint16(b, uint16(len(m.BVs)))
		for _, bv := range m.BVs {
			b = bv.AppendBinary(b)
		}
	}
	b = le.AppendUint32(b, uint32(len(d.Codes)))
	for _, c := range d.Codes {
		b = le.AppendUint16(b, uint16(c.Array))
		b = le.AppendUint16(b, uint16(c.Tile))
		b = append(b, c.Col, c.Role)
		b = le.AppendUint32(b, c.Code)
	}
	b = le.AppendUint32(b, uint32(len(d.LocalRows)))
	for i := range d.LocalRows {
		r := &d.LocalRows[i]
		b = le.AppendUint16(b, uint16(r.Array))
		b = le.AppendUint16(b, uint16(r.Tile))
		b = append(b, r.Row)
		b = append(b, r.Bits[:]...)
	}
	b = le.AppendUint32(b, uint32(len(d.GlobalRows)))
	for i := range d.GlobalRows {
		r := &d.GlobalRows[i]
		b = le.AppendUint16(b, uint16(r.Array))
		b = append(b, r.Row)
		b = append(b, r.Bits[:]...)
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// Wire sizes of the delta's fixed-layout records; a tile-metadata record
// is followed by its bit vectors, an array replacement is an array index
// and the array.
const (
	headerRecBytes = 2 + 1 + 1
	metaRecBytes   = 2 + 2 + 1 + 1 + 2
	codeRecBytes   = 2 + 2 + 1 + 1 + 4
	localRecBytes  = 2 + 2 + 1 + localRowBytes
	globalRecBytes = 2 + 1 + globalRowBytes
)

// emptyArrayBytes is the wire size of an array without tiles: its header
// and global switch.
var emptyArrayBytes = new(bitstream.ArrayConfig).SizeBytes()

// SizeBytes returns the length of the delta's wire form, from the layout
// MarshalBinary writes: nothing is marshalled.
func (d *Delta) SizeBytes() int {
	n := 4 + 2 + 4 + 4 + 2 + 6*4 + 4 // header, six section counts, CRC
	for i := range d.Replaces {
		n += 2 + d.Replaces[i].Config.SizeBytes()
	}
	n += headerRecBytes * len(d.Headers)
	for i := range d.TileMetas {
		n += metaRecBytes + bitstream.BVBytes*len(d.TileMetas[i].BVs)
	}
	n += codeRecBytes * len(d.Codes)
	n += localRecBytes * len(d.LocalRows)
	n += globalRecBytes * len(d.GlobalRows)
	return n
}

// ParseDelta deserializes and verifies a delta. It reads through
// bitstream's Decoder, so like bitstream.Parse it never panics on arbitrary
// bytes and allocates nothing for a count the input cannot back.
func ParseDelta(data []byte) (*Delta, error) {
	dec, err := bitstream.Open(data, deltaMagic, deltaVersion)
	if err != nil {
		return nil, err
	}
	d := &Delta{BaseCRC: dec.U32(), TargetCRC: dec.U32(), NumArrays: int(dec.U16())}
	d.Replaces = make([]ArrayReplace, dec.Count(2+emptyArrayBytes))
	for i := range d.Replaces {
		d.Replaces[i].Array = int(dec.U16())
		dec.Array(&d.Replaces[i].Config)
	}
	d.Headers = make([]HeaderUpdate, dec.Count(headerRecBytes))
	for i := range d.Headers {
		d.Headers[i] = HeaderUpdate{Array: int(dec.U16()), Mode: arch.Mode(dec.U8()), Depth: dec.U8()}
	}
	d.TileMetas = make([]TileMetaUpdate, dec.Count(metaRecBytes))
	for i := range d.TileMetas {
		d.TileMetas[i] = TileMetaUpdate{Array: int(dec.U16()), Tile: int(dec.U16()),
			Mode: arch.Mode(dec.U8()), HasInitial: dec.U8()&1 != 0, BVs: dec.BVs()}
	}
	d.Codes = make([]CodeUpdate, dec.Count(codeRecBytes))
	for i := range d.Codes {
		d.Codes[i] = CodeUpdate{Array: int(dec.U16()), Tile: int(dec.U16()), Col: dec.U8(), Role: dec.U8(), Code: dec.U32()}
	}
	d.LocalRows = make([]LocalRowUpdate, dec.Count(localRecBytes))
	for i := range d.LocalRows {
		u := &d.LocalRows[i]
		u.Array, u.Tile, u.Row = int(dec.U16()), int(dec.U16()), dec.U8()
		dec.Bytes(u.Bits[:])
	}
	d.GlobalRows = make([]GlobalRowUpdate, dec.Count(globalRecBytes))
	for i := range d.GlobalRows {
		u := &d.GlobalRows[i]
		u.Array, u.Row = int(dec.U16()), dec.U8()
		dec.Bytes(u.Bits[:])
	}
	if err := dec.End(); err != nil {
		return nil, err
	}
	return d, nil
}
