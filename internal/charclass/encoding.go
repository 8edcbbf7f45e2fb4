package charclass

import "fmt"

// This file implements the CAM code generation for character classes.
//
// The RAP tile CAM is 32 rows by 128 columns (§3.3): each column (STE)
// stores one 32-bit code. Following CAMA's encoding, an 8-bit input symbol
// is split into two 4-bit halves, each expanded one-hot into 16 bits,
// giving a 32-bit search word with exactly two set bits. A stored code is
// a pair of 16-bit masks (high-nibble mask, low-nibble mask); the column
// matches iff the input's high-nibble bit AND low-nibble bit both fall
// inside the stored masks.
//
// A single code therefore represents exactly a "product class":
// {high nibbles} x {low nibbles}. General classes decompose into several
// codes — one per distinct low-nibble set among the high nibbles — which
// is the multi-code ("multi-zero prefix") scheme of CAMA. LNFA mode
// requires every CC of a CAM-mapped LNFA to fit in a single 32-bit code
// (§3.2); classes that don't force the one-hot local-switch mapping.

// Code is one 32-bit CAM code: a product of a set of high nibbles and a
// set of low nibbles.
type Code struct {
	Hi uint16 // bit i set => high nibble i allowed
	Lo uint16 // bit i set => low nibble i allowed
}

// Matches reports whether the code matches input byte b.
func (k Code) Matches(b byte) bool {
	return k.Hi&(1<<(b>>4)) != 0 && k.Lo&(1<<(b&0x0f)) != 0
}

// Class returns the set of bytes the code matches.
func (k Code) Class() Class {
	var c Class
	for hi := 0; hi < 16; hi++ {
		if k.Hi&(1<<hi) == 0 {
			continue
		}
		for lo := 0; lo < 16; lo++ {
			if k.Lo&(1<<lo) != 0 {
				c.Add(byte(hi<<4 | lo))
			}
		}
	}
	return c
}

// String renders the code as hi-mask/lo-mask hex.
func (k Code) String() string { return fmt.Sprintf("%04x/%04x", k.Hi, k.Lo) }

// loSet returns the low nibbles the class allows under high nibble hi:
// bytes hi<<4 .. hi<<4|15 are one 16-bit field of the class's words.
func loSet(c *Class, hi int) uint16 { return uint16(c[hi>>2] >> (16 * (hi & 3))) }

// codeLedBy returns the product code of high nibble hi, whose low-nibble
// set is lo: that set, under every high nibble from hi up that shares it.
func codeLedBy(c *Class, hi int, lo uint16) Code {
	code := Code{Lo: lo}
	for h2 := hi; h2 < 16; h2++ {
		if loSet(c, h2) == lo {
			code.Hi |= 1 << h2
		}
	}
	return code
}

// codesOf decomposes the class into the canonical minimal set of product
// codes — high nibbles that share an identical low-nibble set are merged
// into a single code, ordered by the smallest high nibble of each group —
// and returns them with their number. Nothing is allocated and no byte
// value is probed: the sixteen low-nibble sets are read off the words.
func codesOf(c Class) (codes [16]Code, n int) {
	var done uint16
	for hi := 0; hi < 16; hi++ {
		lo := loSet(&c, hi)
		if lo == 0 || done&(1<<hi) != 0 {
			continue
		}
		codes[n] = codeLedBy(&c, hi, lo)
		done |= codes[n].Hi
		n++
	}
	return codes, n
}

// Encode returns the class's product codes (see codesOf). The result is
// deterministic; an empty class encodes to nil.
func Encode(c Class) []Code {
	codes, n := codesOf(c)
	if n == 0 {
		return nil
	}
	return append([]Code(nil), codes[:n]...)
}

// FirstCode returns Encode(c)[0] without building the list, or the zero
// Code for an empty class.
func FirstCode(c Class) Code {
	for hi := 0; hi < 16; hi++ {
		if lo := loSet(&c, hi); lo != 0 {
			return codeLedBy(&c, hi, lo)
		}
	}
	return Code{}
}

// NumCodes returns the number of 32-bit CAM codes the class requires.
func NumCodes(c Class) int {
	_, n := codesOf(c)
	return n
}

// SingleCode reports whether the class fits a single 32-bit CAM code,
// the §3.2 requirement for CAM-mapped LNFAs.
func SingleCode(c Class) bool { return NumCodes(c) == 1 }
