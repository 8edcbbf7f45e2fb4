package bitstream

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/mapper"
)

// fuzzSeedImages builds marshalled images from real pattern sets, so the
// fuzzer starts from structurally valid inputs and mutates inward.
func fuzzSeedImages(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, patterns := range [][]string{
		{"cat"},
		{"cat", "dog{3,9}x", "a(b|c)*d"},
		{"ab{10,48}c", "x[a-f]{4}y", "(foo|bar)baz"},
	} {
		res := compile.Compile(patterns, compile.Options{})
		if len(res.Errors) != 0 {
			f.Fatal(res.Errors[0])
		}
		p, err := mapper.Map(res, mapper.Options{})
		if err != nil {
			f.Fatal(err)
		}
		img, err := Build(res, p)
		if err != nil {
			f.Fatal(err)
		}
		data, err := img.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzParse asserts Parse never panics or over-allocates on arbitrary
// bytes — the image file is an external input (rapc -bitstream output,
// rapc -diff operands), so a corrupt or hostile file must fail cleanly.
func FuzzParse(f *testing.F) {
	for _, data := range fuzzSeedImages(f) {
		f.Add(data)
		// Corrupted variants: truncation and a header bit flip.
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[8] ^= 0x40
		f.Add(flipped)
		reserved := append([]byte(nil), data...)
		reserved[imageHeaderBytes+arrayHeaderBytes+1] |= 0xfe // the first tile's flag byte
		f.Add(reserved)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The input is parsed as it came and with its trailer made the CRC
		// of the rest, so that mutated bodies reach the decoder. A flag byte
		// reads only its low bit, so only the first must come back byte for
		// byte; both must re-parse to the image they parsed to.
		for i, in := range [][]byte{data, resealed(data)} {
			img, err := Parse(in)
			if err != nil {
				continue
			}
			out, err := img.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal of parsed image: %v", err)
			}
			if i == 0 && !bytes.Equal(out, in) {
				t.Fatalf("round trip diverged: %d in, %d out", len(in), len(out))
			}
			if back, err := Parse(out); err != nil || !reflect.DeepEqual(back, img) {
				t.Fatalf("re-parse of the re-marshalled image diverged (err %v)", err)
			}
		}
	})
}

// resealed is data with its last four bytes replaced by the CRC-32 of the
// bytes before them, in a new slice.
func resealed(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	body := data[: len(data)-4 : len(data)-4]
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}
