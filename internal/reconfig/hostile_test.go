package reconfig

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/bitstream"
)

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sealed appends pad zero bytes and the CRC-32 trailer to a wire body, so
// the input passes the envelope and reaches the count under test.
func sealed(b []byte, pad int) []byte {
	b = append(b, make([]byte, pad)...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestHostileCountsAllocateNothing feeds both parsers short inputs whose
// counts claim more records than the bytes left could hold — the image's
// array, tile and BV counts, and each of the delta's six sections and a
// tile-metadata record's BVs. Every one is refused as truncated, having
// allocated under 1 MiB: nothing is allocated for a count before it is
// checked against the input.
func TestHostileCountsAllocateNothing(t *testing.T) {
	le := binary.LittleEndian
	image := func(nArrays uint16) []byte {
		return le.AppendUint16(le.AppendUint16(le.AppendUint32(nil, 0x52415042), 1), nArrays)
	}
	oneArray := func(nTiles uint16) []byte { return le.AppendUint16(append(image(1), 0, 0), nTiles) }
	// delta is the header and section of the given index, claiming n
	// records, after empty sections.
	delta := func(section int, n uint32) []byte {
		b := le.AppendUint16(le.AppendUint32(nil, deltaMagic), deltaVersion)
		b = le.AppendUint16(le.AppendUint64(b, 0), 0) // base and target CRCs, array count
		b = append(b, make([]byte, 4*section)...)
		return le.AppendUint32(b, n)
	}
	tileHead := make([]byte, 2+128+4*128) // mode, flags, column roles, CAM codes
	cases := []struct {
		name  string
		data  []byte
		delta bool
	}{
		{"image array count", sealed(image(65535), 4096), false},
		{"image tile count", sealed(oneArray(65535), 4096), false},
		{"image BV count", sealed(le.AppendUint16(append(oneArray(1), tileHead...), 65535), 8192), false},
		{"delta replaces", sealed(delta(0, 65535), 4096), true},
		{"delta replaced array's tile count", sealed(le.AppendUint16(append(le.AppendUint16(delta(0, 1), 0), 0, 0), 65535), 8192), true},
		{"delta headers", sealed(delta(1, 1<<31), 4096), true},
		{"delta tile metas", sealed(delta(2, 1<<31), 4096), true},
		{"delta tile meta's BV count", sealed(le.AppendUint16(append(delta(2, 1), 0, 0, 0, 0, 0, 0), 65535), 64), true},
		{"delta CAM codes", sealed(delta(3, 1<<31), 4096), true},
		{"delta local rows", sealed(delta(4, 1<<31), 4096), true},
		{"delta global rows", sealed(delta(5, 1<<31), 4096), true},
	}
	for _, c := range cases {
		var err error
		n := allocated(func() {
			if c.delta {
				_, err = ParseDelta(c.data)
			} else {
				_, err = bitstream.Parse(c.data)
			}
		})
		if !errors.Is(err, bitstream.ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", c.name, err)
		}
		if n > 1<<20 {
			t.Errorf("%s: %d-byte input allocated %d bytes", c.name, len(c.data), n)
		}
	}
}

// A 44-byte delta — no records, the base's CRC, 65 535 arrays — parses,
// and Apply refuses it before allocating for the arrays it claims: an
// ArrayConfig is about 8 KB, so 65 535 of them are over half a gigabyte.
func TestApplyRejectsUnbackedArrayCount(t *testing.T) {
	base := imageFor(t, []string{"cat"})
	data, err := (&Delta{BaseCRC: base.CRC(), NumArrays: 65535}).MarshalBinary()
	if err != nil || len(data) != 44 {
		t.Fatalf("hostile delta: %d bytes, %v", len(data), err)
	}
	d, err := ParseDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := allocated(func() { _, err = Apply(base, d) }); n > 1<<20 {
		t.Errorf("Apply allocated %d bytes for a delta without records", n)
	}
	if err == nil {
		t.Fatal("Apply built 65 535 arrays from a delta without records")
	}
}
