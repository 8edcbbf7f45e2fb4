package reconfig

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/arch"
	"repro/internal/bitstream"
)

// Delta wire format: little-endian, magic "RAPD", version, base/target
// CRCs, the six record sections (each a u32 count followed by fixed-layout
// records), and a trailing CRC-32 over everything before it — the same
// envelope discipline as the full image format in internal/bitstream.
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

// SizeBytes returns the length of the delta's wire form, from the layout
// MarshalBinary writes: nothing is marshalled.
func (d *Delta) SizeBytes() int {
	n := 4 + 2 + 4 + 4 + 2 + 6*4 + 4 // header, six section counts, CRC
	for i := range d.Replaces {
		n += 2 + d.Replaces[i].Config.SizeBytes()
	}
	n += 4 * len(d.Headers)
	for i := range d.TileMetas {
		n += 8 + bitstream.BVBytes*len(d.TileMetas[i].BVs)
	}
	n += 10 * len(d.Codes)
	n += (5 + localRowBytes) * len(d.LocalRows)
	n += (3 + globalRowBytes) * len(d.GlobalRows)
	return n
}

// ParseDelta deserializes and verifies a delta. Like bitstream.Parse it
// must never panic on arbitrary bytes: every length is checked against
// the remaining input before use.
func ParseDelta(data []byte) (*Delta, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("reconfig: truncated delta")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("reconfig: delta CRC mismatch")
	}
	r := bytes.NewReader(body)
	rd := func(v interface{}) error { return binary.Read(r, binary.LittleEndian, v) }
	var m uint32
	var ver, nArrays uint16
	if err := rd(&m); err != nil || m != deltaMagic {
		return nil, fmt.Errorf("reconfig: bad delta magic")
	}
	if err := rd(&ver); err != nil || ver != deltaVersion {
		return nil, fmt.Errorf("reconfig: unsupported delta version %d", ver)
	}
	d := &Delta{}
	if err := rd(&d.BaseCRC); err != nil {
		return nil, err
	}
	if err := rd(&d.TargetCRC); err != nil {
		return nil, err
	}
	if err := rd(&nArrays); err != nil {
		return nil, err
	}
	d.NumArrays = int(nArrays)

	// count reads a section length and sanity-checks it against the bytes
	// actually left, so hostile counts cannot drive huge allocations.
	count := func(minRecBytes int) (int, error) {
		var n uint32
		if err := rd(&n); err != nil {
			return 0, err
		}
		if minRecBytes > 0 && int64(n)*int64(minRecBytes) > int64(r.Len()) {
			return 0, fmt.Errorf("reconfig: section claims %d records with %d bytes left", n, r.Len())
		}
		return int(n), nil
	}

	nRep, err := count(8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nRep; i++ {
		var rep ArrayReplace
		var ai uint16
		if err := rd(&ai); err != nil {
			return nil, err
		}
		rep.Array = int(ai)
		if err := readArray(r, rd, &rep.Config); err != nil {
			return nil, err
		}
		d.Replaces = append(d.Replaces, rep)
	}
	nHdr, err := count(4)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nHdr; i++ {
		var ai uint16
		var mode, depth uint8
		if err := rd(&ai); err != nil {
			return nil, err
		}
		if err := rd(&mode); err != nil {
			return nil, err
		}
		if err := rd(&depth); err != nil {
			return nil, err
		}
		d.Headers = append(d.Headers, HeaderUpdate{Array: int(ai), Mode: arch.Mode(mode), Depth: depth})
	}
	nMeta, err := count(8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nMeta; i++ {
		var ai, ti, nBVs uint16
		var mode, flags uint8
		if err := rd(&ai); err != nil {
			return nil, err
		}
		if err := rd(&ti); err != nil {
			return nil, err
		}
		if err := rd(&mode); err != nil {
			return nil, err
		}
		if err := rd(&flags); err != nil {
			return nil, err
		}
		if err := rd(&nBVs); err != nil {
			return nil, err
		}
		mu := TileMetaUpdate{Array: int(ai), Tile: int(ti), Mode: arch.Mode(mode), HasInitial: flags&1 != 0}
		for k := 0; k < int(nBVs); k++ {
			bv, err := readBV(rd)
			if err != nil {
				return nil, err
			}
			mu.BVs = append(mu.BVs, bv)
		}
		d.TileMetas = append(d.TileMetas, mu)
	}
	nCodes, err := count(10)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nCodes; i++ {
		var c CodeUpdate
		var ai, ti uint16
		if err := rd(&ai); err != nil {
			return nil, err
		}
		if err := rd(&ti); err != nil {
			return nil, err
		}
		if err := rd(&c.Col); err != nil {
			return nil, err
		}
		if err := rd(&c.Role); err != nil {
			return nil, err
		}
		if err := rd(&c.Code); err != nil {
			return nil, err
		}
		c.Array, c.Tile = int(ai), int(ti)
		d.Codes = append(d.Codes, c)
	}
	nLocal, err := count(5 + localRowBytes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nLocal; i++ {
		var u LocalRowUpdate
		var ai, ti uint16
		if err := rd(&ai); err != nil {
			return nil, err
		}
		if err := rd(&ti); err != nil {
			return nil, err
		}
		if err := rd(&u.Row); err != nil {
			return nil, err
		}
		if err := rd(u.Bits[:]); err != nil {
			return nil, err
		}
		u.Array, u.Tile = int(ai), int(ti)
		d.LocalRows = append(d.LocalRows, u)
	}
	nGlobal, err := count(3 + globalRowBytes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nGlobal; i++ {
		var u GlobalRowUpdate
		var ai uint16
		if err := rd(&ai); err != nil {
			return nil, err
		}
		if err := rd(&u.Row); err != nil {
			return nil, err
		}
		if err := rd(u.Bits[:]); err != nil {
			return nil, err
		}
		u.Array = int(ai)
		d.GlobalRows = append(d.GlobalRows, u)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("reconfig: %d trailing bytes", r.Len())
	}
	return d, nil
}

func readBV(rd func(interface{}) error) (bitstream.BVConfig, error) {
	var bv bitstream.BVConfig
	var readAll uint8
	if err := rd(&bv.FirstColumn); err != nil {
		return bv, err
	}
	if err := rd(&bv.Width); err != nil {
		return bv, err
	}
	if err := rd(&bv.Depth); err != nil {
		return bv, err
	}
	if err := rd(&readAll); err != nil {
		return bv, err
	}
	if err := rd(&bv.Size); err != nil {
		return bv, err
	}
	bv.ReadAll = readAll != 0
	return bv, nil
}

func readArray(r *bytes.Reader, rd func(interface{}) error, a *bitstream.ArrayConfig) error {
	var mode uint8
	var nTiles uint16
	if err := rd(&mode); err != nil {
		return err
	}
	if err := rd(&a.Depth); err != nil {
		return err
	}
	if err := rd(&nTiles); err != nil {
		return err
	}
	a.Mode = arch.Mode(mode)
	// A tile payload is at least ColRole+CAMCodes+LocalSwitch bytes; check
	// the claimed count against what's left before looping.
	const tileMin = arch.TileSTEs + 4*arch.TileSTEs + 4 + arch.TileSTEs*arch.TileSTEs/8
	if int64(nTiles)*tileMin > int64(r.Len()) {
		return fmt.Errorf("reconfig: array payload claims %d tiles with %d bytes left", nTiles, r.Len())
	}
	for t := 0; t < int(nTiles); t++ {
		var tc bitstream.TileConfig
		var tm, flags uint8
		if err := rd(&tm); err != nil {
			return err
		}
		if err := rd(&flags); err != nil {
			return err
		}
		tc.Mode = arch.Mode(tm)
		tc.HasInitial = flags&1 != 0
		if err := rd(tc.ColRole[:]); err != nil {
			return err
		}
		if err := rd(tc.CAMCodes[:]); err != nil {
			return err
		}
		var nBVs uint16
		if err := rd(&nBVs); err != nil {
			return err
		}
		for k := 0; k < int(nBVs); k++ {
			bv, err := readBV(rd)
			if err != nil {
				return err
			}
			tc.BVs = append(tc.BVs, bv)
		}
		if err := rd(tc.LocalSwitch[:]); err != nil {
			return err
		}
		a.Tiles = append(a.Tiles, tc)
	}
	return rd(a.GlobalSwitch[:])
}
