package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/arch"
)

// ErrTruncated is the error of a read past the end of a Decoder's input,
// and of a count the bytes left cannot back.
var ErrTruncated = errors.New("bitstream: input ends before what it declares")

// Decoder reads the little-endian wire formats of the fabric — the RAPB
// image here, the RAPD delta in internal/reconfig — off the front of a
// byte slice. It is the only code that knows how an array, its tiles and
// their bit vectors are laid out on the wire. The first read the input
// cannot back sets a sticky error, and every read after it returns zero,
// so a parser reads on and checks End once; a count is checked against
// the bytes left before anything is allocated for it.
type Decoder struct {
	name []byte // the magic, "RAPB" or "RAPD", which errors name
	b    []byte
	err  error
}

// Open checks the envelope both formats share — a CRC-32 trailer over
// everything before it, then magic and version — and returns a Decoder
// over the bytes between them and the trailer.
func Open(data []byte, magic uint32, version uint16) (*Decoder, error) {
	name := binary.BigEndian.AppendUint32(nil, magic)
	if len(data) < 4+2+4 {
		return nil, fmt.Errorf("%s: %w", name, ErrTruncated)
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, fmt.Errorf("%s: CRC mismatch", name)
	}
	d := &Decoder{name: name, b: body}
	if d.U32() != magic {
		return nil, fmt.Errorf("%s: bad magic", name)
	}
	if v := d.U16(); v != version {
		return nil, fmt.Errorf("%s: unsupported version %d", name, v)
	}
	return d, nil
}

// next consumes n bytes, or returns nil and sets the error.
func (d *Decoder) next(n int) []byte {
	if d.err != nil || n > len(d.b) {
		d.err = ErrTruncated
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// U8, U16 and U32 read one integer.
func (d *Decoder) U8() uint8 {
	if p := d.next(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *Decoder) U16() uint16 {
	if p := d.next(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if p := d.next(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// Bytes fills dst.
func (d *Decoder) Bytes(dst []byte) { copy(dst, d.next(len(dst))) }

// Count reads a u32 record count, the delta's section header, and returns
// it if the bytes left hold that many records of at least size bytes;
// otherwise it sets the error and returns 0.
func (d *Decoder) Count(size int) int { return d.bound(int64(d.U32()), size) }

func (d *Decoder) bound(n int64, size int) int {
	if n*int64(size) > int64(len(d.b)) {
		d.err = ErrTruncated
		return 0
	}
	return int(n)
}

// Array reads one array, as ArrayConfig.AppendBinary writes it, into a,
// each tile and the global switch into memory of its own, and seals it.
func (d *Decoder) Array(a *ArrayConfig) {
	a.Mode, a.Depth = arch.Mode(d.U8()), d.U8()
	a.Tiles = make([]*TileConfig, d.bound(int64(d.U16()), tileFixedBytes))
	for i := range a.Tiles {
		t := new(TileConfig)
		a.Tiles[i] = t
		t.Mode, t.HasInitial = arch.Mode(d.U8()), d.U8()&1 != 0
		d.Bytes(t.ColRole[:])
		for c := range t.CAMCodes {
			t.CAMCodes[c] = d.U32()
		}
		t.BVs = d.BVs()
		d.Bytes(t.LocalSwitch[:])
	}
	a.GlobalSwitch = new([256 * 256 / 8]byte)
	d.Bytes(a.GlobalSwitch[:])
	if d.err == nil {
		a.Seal()
	}
}

// BVs reads a u16 count and that many bit vectors; it returns nil for none.
func (d *Decoder) BVs() []BVConfig {
	n := d.bound(int64(d.U16()), BVBytes)
	if n == 0 {
		return nil
	}
	bvs := make([]BVConfig, n)
	for i := range bvs {
		bvs[i] = BVConfig{FirstColumn: d.U8(), Width: d.U8(), Depth: d.U8(), ReadAll: d.U8() != 0, Size: d.U16()}
	}
	return bvs
}

// End returns the error of the first read the input could not back, or an
// error if bytes are left over.
func (d *Decoder) End() error {
	if d.err != nil {
		return fmt.Errorf("%s: %w", d.name, d.err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%s: %d trailing bytes", d.name, len(d.b))
	}
	return nil
}
