package charclass

import (
	"math/rand"
	"reflect"
	"testing"
)

// referenceEncode is the encoder Encode replaced: it probes all 256 bytes
// with Contains to collect the low-nibble set of every high nibble, then
// groups equal sets. The word-parallel Encode must agree with it on every
// class.
func referenceEncode(c Class) []Code {
	var loSets [16]uint16
	for hi := 0; hi < 16; hi++ {
		var lo uint16
		for l := 0; l < 16; l++ {
			if c.Contains(byte(hi<<4 | l)) {
				lo |= 1 << l
			}
		}
		loSets[hi] = lo
	}
	var codes []Code
	var used uint16
	for hi := 0; hi < 16; hi++ {
		if used&(1<<hi) != 0 || loSets[hi] == 0 {
			continue
		}
		code := Code{Lo: loSets[hi]}
		for h2 := hi; h2 < 16; h2++ {
			if loSets[h2] == loSets[hi] {
				code.Hi |= 1 << h2
				used |= 1 << h2
			}
		}
		codes = append(codes, code)
	}
	return codes
}

// checkEncode compares Encode and the three accessors derived from it
// against the reference on one class.
func checkEncode(t *testing.T, c Class) {
	t.Helper()
	want := referenceEncode(c)
	if got := Encode(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("Encode(%v) = %v, reference %v", [4]uint64(c), got, want)
	}
	if got := NumCodes(c); got != len(want) {
		t.Fatalf("NumCodes(%v) = %d, reference %d", [4]uint64(c), got, len(want))
	}
	if got := SingleCode(c); got != (len(want) == 1) {
		t.Fatalf("SingleCode(%v) = %v with %d reference codes", [4]uint64(c), got, len(want))
	}
	var first Code
	if len(want) > 0 {
		first = want[0]
	}
	if got := FirstCode(c); got != first {
		t.Fatalf("FirstCode(%v) = %v, reference %v", [4]uint64(c), got, first)
	}
}

func TestEncodeEqualsReference(t *testing.T) {
	checkEncode(t, Class{})
	checkEncode(t, Any())
	for b := 0; b < 256; b++ {
		checkEncode(t, Single(byte(b)))
		checkEncode(t, Single(byte(b)).Negate())
	}
	for lo := 0; lo < 256; lo++ {
		for hi := lo; hi < 256; hi++ {
			checkEncode(t, Range(byte(lo), byte(hi)))
		}
	}
	for _, mk := range posixClasses {
		c := mk()
		checkEncode(t, c)
		checkEncode(t, c.Negate())
		checkEncode(t, c.Union(Single('_')))
	}
	for _, c := range []Class{Digit(), Space(), Word()} {
		checkEncode(t, c)
		checkEncode(t, c.Negate())
	}
	// Seeded random classes at every density: a sparse class has many
	// distinct low-nibble sets, a dense one few.
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 10000; i++ {
		var c Class
		switch i % 4 {
		case 0:
			c = Class{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
		case 1:
			for k := r.Intn(12); k >= 0; k-- {
				c.Add(byte(r.Intn(256)))
			}
		case 2:
			// A product class with holes: few groups, several members each.
			lo := uint16(r.Uint32())
			for hi := 0; hi < 16; hi++ {
				if r.Intn(2) == 0 {
					c[hi>>2] |= uint64(lo) << (16 * (hi & 3))
				}
			}
			hole := byte(r.Intn(256))
			c[hole>>6] &^= 1 << (hole & 63)
		default:
			c = Class{r.Uint64() & r.Uint64(), r.Uint64() | r.Uint64(), 0, r.Uint64()}
		}
		checkEncode(t, c)
	}
}

func FuzzEncodeEquivalence(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(0x03ff000000000000), uint64(0), uint64(0), uint64(0))                      // \d
	f.Add(uint64(0), uint64(0x07fffffe07fffffe), uint64(0), uint64(0))                      // [A-Za-z]
	f.Add(uint64(0xffff0000ffff0000), uint64(0x0001000100010001), uint64(1)<<63, uint64(1)) // mixed nibble sets
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3 uint64) {
		checkEncode(t, Class{w0, w1, w2, w3})
	})
}

// The accessors the compiler and the image builder call per state must not
// allocate: only Encode, which returns the list, may.
func TestCodeAccessorsDoNotAllocate(t *testing.T) {
	classes := []Class{{}, Any(), Digit(), Word(), Range('a', 'z'), Single(0xff).Negate()}
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range classes {
			sink += NumCodes(c) + int(FirstCode(c).Lo)
			if SingleCode(c) {
				sink++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("NumCodes/SingleCode/FirstCode allocate %.0f times per run", allocs)
	}
	_ = sink
}
