// Package bitvec provides variable-length bit vectors used throughout the
// RAP reproduction: as NBVA counter vectors, as Shift-And state/label masks,
// and as activation vectors inside the cycle-level simulator.
//
// A Vector has a fixed length in bits, chosen at construction. Bit 0 is the
// least significant bit of word 0, matching the paper's convention that the
// rightmost bit of the written form x_{n-1}...x_1 x_0 is index 0.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is a zero-length
// vector; use New to create one with a given size.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zero vector with n bits. n must be non-negative.
func New(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewSlab sets every element of dst to a zero vector with n bits, all cut
// from one allocation. n must be non-negative.
func NewSlab(dst []Vector, n int) {
	per := (n + wordBits - 1) / wordBits
	slab := make([]uint64, per*len(dst))
	for i := range dst {
		dst[i] = Vector{n: n, words: slab[i*per : (i+1)*per : (i+1)*per]}
	}
}

// Len returns the number of bits in the vector.
func (v Vector) Len() int { return v.n }

// Words exposes the underlying words (read-only by convention). The last
// word's bits above Len are always zero.
func (v Vector) Words() []uint64 { return v.words }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Set sets bit i to 1.
func (v Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Reset zeroes every bit in place.
func (v Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Any reports whether any bit is set.
func (v Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether the vector is all zero.
func (v Vector) None() bool { return !v.Any() }

// Count returns the number of set bits (population count).
func (v Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CopyFrom copies o into v. Both vectors must have the same length.
func (v Vector) CopyFrom(o Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: CopyFrom length mismatch %d != %d", v.n, o.n))
	}
	copy(v.words, o.words)
}

// And stores v AND o into v. Lengths must match.
func (v Vector) And(o Vector) {
	v.matchLen(o)
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

// Or stores v OR o into v. Lengths must match.
func (v Vector) Or(o Vector) {
	v.matchLen(o)
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

func (v Vector) matchLen(o Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, o.n))
	}
}

// ShiftLeft shifts every bit one position toward higher indices in place
// (the paper's "shft(v)": [0,1,0] -> [0,0,1]). The top bit is discarded;
// it can be inspected beforehand with Get(Len()-1) for overflow checks.
func (v Vector) ShiftLeft() {
	var carry uint64
	for i := range v.words {
		next := v.words[i] >> (wordBits - 1)
		v.words[i] = v.words[i]<<1 | carry
		carry = next
	}
	v.trim()
}

// trim clears bits beyond Len in the last word.
func (v Vector) trim() {
	if v.n%wordBits != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << (uint(v.n) % wordBits)) - 1
	}
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none. It allows iterating set bits in O(set + words).
func (v Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	w := i / wordBits
	off := uint(i) % wordBits
	cur := v.words[w] >> off
	if cur != 0 {
		return i + bits.TrailingZeros64(cur)
	}
	for w++; w < len(v.words); w++ {
		if v.words[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(v.words[w])
		}
	}
	return -1
}

// String renders the vector most-significant-bit first, the notation used
// in the paper's Shift-And examples (e.g. "0011" has bits 0 and 1 set).
func (v Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := v.n - 1; i >= 0; i-- {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
