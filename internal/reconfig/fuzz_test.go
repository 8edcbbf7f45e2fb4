package reconfig

import (
	"reflect"
	"testing"
)

// FuzzParseDelta: ParseDelta never panics on arbitrary bytes — a RAPD file
// is an external input (rapc -diff operands, a cluster peer's update) — and
// a delta it accepts marshals into a buffer of exactly the computed size
// that parses back to the same delta.
func FuzzParseDelta(f *testing.F) {
	base := imageFor(f, []string{"cat", "a(b|c)*d", "ab{20,48}c"})
	for _, next := range [][]string{
		{"cat", "a(b|c)*d", "ab{20,48}c"},
		{"cow", "a(b|c)*d", "ab{20,40}c"},
		{"x.{100}y", "cat"},
	} {
		data, err := Diff(base, imageFor(f, next)).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The input as it came, and with its trailer made the CRC of the
		// rest, so that mutated bodies reach the decoder.
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, sealed(data[:len(data)-4:len(data)-4], 0))
		}
		for _, in := range inputs {
			d, err := ParseDelta(in)
			if err != nil {
				continue
			}
			out, err := d.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal of a parsed delta: %v", err)
			}
			if len(out) != d.SizeBytes() {
				t.Fatalf("marshalled %d bytes, sized %d", len(out), d.SizeBytes())
			}
			back, err := ParseDelta(out)
			if err != nil || !reflect.DeepEqual(back, d) {
				t.Fatalf("round trip diverged (err %v)", err)
			}
		}
	})
}
