package simdscan

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
)

// Teddy sizing. Eight buckets fit one uint8 candidate mask, which is what
// keeps the inner loop branch-free; 32 literals cap the verify cost per
// candidate at a handful of byte comparisons per bucket.
const (
	// TeddyMaxLiterals is the largest literal set a Teddy scanner accepts.
	TeddyMaxLiterals = 32
	// TeddyMinLiteralLen is the shortest literal a Teddy scanner accepts:
	// the fingerprint needs at least two bytes to be selective.
	TeddyMinLiteralLen = 2

	teddyBuckets   = 8
	teddyMaxFinger = 3
)

// Teddy is a compiled multi-literal fingerprint prefilter. It reports the
// end offset of every literal occurrence in a byte stream, like an
// Aho-Corasick scanner, but examines the input through per-position
// nibble mask tables instead of walking a DFA: per input byte the scanner
// ANDs "which buckets could have their j-th fingerprint byte here" masks
// through a rolling window, so the per-byte work is a few independent
// table loads with no loop-carried load dependency.
//
// The fingerprint covers the final 2–3 bytes of each literal (suffix
// orientation, where Hyperscan's Teddy fingerprints the head): a
// candidate names a potential literal *end*, verification only ever looks
// backward, and streaming needs just a bounded tail history instead of a
// pending-candidate list — matching the hit-at-end contract of the
// Aho-Corasick tier it slots in next to.
//
// A Teddy is immutable after NewTeddy and safe for concurrent use; all
// per-stream state lives in the caller's TeddyState.
type Teddy struct {
	fp     int // fingerprint length: min(3, shortest literal length)
	maxLen int // longest literal, bounds the history verification needs

	// Nibble mask tables, a low- and a high-nibble one per fingerprint
	// position, counted back from the literal's last byte at nib[2]: bit
	// k of nib[j][0][b&15] and of nib[j][1][b>>4] is set when some literal
	// of bucket k has a byte with that nibble there. A byte can occupy the
	// position in bucket k's fingerprint only if both its nibble masks
	// carry bit k. These are the AVX2 kernel's VPSHUFB operands, 32 lanes
	// per instruction; with fingerprint 2, nib[0] is all ones, so one
	// 3-position routine serves both lengths.
	nib [teddyMaxFinger][2][16]uint8

	// fused is nib with each position's two lookups ANDed into one
	// 256-entry table (fuse): the Go loops spend one load per position
	// instead of two. Nibble false positives (a byte borrowing its low
	// nibble from one literal and its high nibble from another in the same
	// bucket) are preserved — verification filters them, as on hardware.
	fused [teddyMaxFinger][256]uint8

	// buckets holds the verify literals. Literals are sorted by reversed
	// suffix and split into contiguous runs, so literals sharing fingerprint
	// bytes tend to share a bucket (fewer buckets fire per candidate).
	buckets [teddyBuckets][][]byte

	// kernel and kernelAVX2 are Kernel's names for the Go and the AVX2
	// block function.
	kernel, kernelAVX2 string
}

// TeddyState is the cross-chunk scanner state: the partial fingerprint
// products of the last one / two stream bytes, so a fingerprint spanning
// a chunk boundary still completes on the first bytes of the next chunk.
// The zero value is the stream-start state.
type TeddyState struct {
	// r1 is the product of the first two fingerprint positions over the
	// last two bytes, the one missing only the final position; r2 is
	// position 0 of the last byte. With fingerprint 2, position 0 is all
	// ones.
	r1, r2 uint8
	// dirty is DirtyBlocks: a diagnostic, never read by the scan.
	dirty int64
}

// DirtyBlocks returns how many 16-byte blocks since the stream started
// the kernel could not clear without an exact look: the halves of its
// 32-byte blocks that held a fingerprint candidate and so went to verify
// (a chunk's scalar head and tail are not counted). Near streamBytes/16,
// the traffic defeats the filter.
func (s TeddyState) DirtyBlocks() int64 { return s.dirty }

// NewTeddy compiles a Teddy scanner for the literal set, or returns an
// error when the set is outside the fingerprint tier (too many literals
// after deduplication, or a literal shorter than the minimum fingerprint).
func NewTeddy(lits [][]byte) (*Teddy, error) {
	if len(lits) == 0 {
		return nil, fmt.Errorf("simdscan: empty literal set")
	}
	// Deduplicate, validate, and order by reversed suffix so bucket runs
	// group literals with similar fingerprints.
	seen := make(map[string]bool, len(lits))
	uniq := make([][]byte, 0, len(lits))
	for _, l := range lits {
		if len(l) < TeddyMinLiteralLen {
			return nil, fmt.Errorf("simdscan: literal %q shorter than fingerprint minimum %d", l, TeddyMinLiteralLen)
		}
		if !seen[string(l)] {
			seen[string(l)] = true
			uniq = append(uniq, l)
		}
	}
	if len(uniq) > TeddyMaxLiterals {
		return nil, fmt.Errorf("simdscan: %d literals exceed the Teddy cap %d", len(uniq), TeddyMaxLiterals)
	}
	sort.Slice(uniq, func(i, j int) bool { return lessReversed(uniq[i], uniq[j]) })

	t := &Teddy{}
	shortest := len(uniq[0])
	for _, l := range uniq {
		shortest = min(shortest, len(l))
		t.maxLen = max(t.maxLen, len(l))
	}
	t.fp = min(teddyMaxFinger, shortest)
	skip := teddyMaxFinger - t.fp // leading positions a short fingerprint leaves all ones
	for j := 0; j < skip; j++ {
		for b := range t.nib[j][0] {
			t.nib[j][0][b], t.nib[j][1][b] = 0xff, 0xff
		}
	}
	for i, l := range uniq {
		bkt := i * teddyBuckets / len(uniq)
		t.buckets[bkt] = append(t.buckets[bkt], l)
		bit := uint8(1) << bkt
		suffix := l[len(l)-t.fp:]
		for j, b := range suffix {
			t.nib[skip+j][0][b&0x0f] |= bit
			t.nib[skip+j][1][b>>4] |= bit
		}
	}
	t.fused = fuse(&t.nib)
	t.kernel = fmt.Sprintf("teddy fp%d", t.fp)
	t.kernelAVX2 = t.kernel + " avx2"
	return t, nil
}

// fuse ANDs each fingerprint position's low- and high-nibble tables into
// one table indexed by the whole byte: fuse(nib)[j][b] is
// nib[j][0][b&15] & nib[j][1][b>>4].
func fuse(nib *[teddyMaxFinger][2][16]uint8) (f [teddyMaxFinger][256]uint8) {
	for j := range f {
		for b := range f[j] {
			f[j][b] = nib[j][0][b&0x0f] & nib[j][1][b>>4]
		}
	}
	return f
}

// lessReversed orders byte strings by their reversed content, so literals
// with equal suffixes (equal fingerprints) are adjacent.
func lessReversed(a, b []byte) bool {
	for i := 1; i <= len(a) && i <= len(b); i++ {
		if a[len(a)-i] != b[len(b)-i] {
			return a[len(a)-i] < b[len(b)-i]
		}
	}
	return len(a) < len(b)
}

// Kernel names the loop Scan runs over this set: its fingerprint length,
// "teddy fp3" or "teddy fp2" (a 2-byte literal), and " avx2" where
// UseAVX2 has the assembly run the blocks. It does not allocate.
func (t *Teddy) Kernel() string {
	if UseAVX2 {
		return t.kernelAVX2
	}
	return t.kernel
}

// UseAVX2 chooses the block function Scan calls: teddyAVX2 when it is
// true, which it is from package init on an amd64 host whose CPU has AVX2
// and whose OS saves the YMM registers, else its Go twin teddyBlocks. Only
// tests change it, to run both on a host that has both.
var UseAVX2 = hasAVX2()

// vecBlock is how many positions one block of the kernel tests.
const vecBlock = 32

// Scan advances the scanner over one chunk, calling hit(i) for every
// chunk-relative offset i at which at least one literal ends (at most
// once per offset, in increasing order — the Aho-Corasick contract).
// hist holds the stream bytes immediately preceding chunk, newest last;
// occurrences reaching back across the boundary are verified against it.
// The returned state carries the rolling fingerprint across the boundary.
//
// The block function returns the next 32-byte block of the chunk holding
// a fingerprint candidate, with one mask bit per candidate position, and
// verify confirms each. Positions 0 and 1, whose fingerprints reach back
// into the previous chunk through st, and a tail shorter than a block
// take the scalar loop.
func (t *Teddy) Scan(chunk, hist []byte, st TeddyState, hit func(end int)) TeddyState {
	n := len(chunk)
	if n < 2+vecBlock {
		return t.steps(chunk, hist, 0, st, hit)
	}
	st = t.steps(chunk[:2], hist, 0, st, hit)
	f0, f1, f2 := &t.fused[0], &t.fused[1], &t.fused[2]
	i := 2
	for {
		var j int
		var cand uint32
		if UseAVX2 {
			j, cand = teddyAVX2(&t.nib, chunk, i)
		} else {
			j, cand = teddyBlocks(&t.fused, chunk, i)
		}
		if cand == 0 {
			i = j
			break
		}
		if uint16(cand) != 0 {
			st.dirty++
		}
		if cand>>16 != 0 {
			st.dirty++
		}
		for ; cand != 0; cand &= cand - 1 {
			p := j + bits.TrailingZeros32(cand)
			t.verify(chunk, hist, p, f0[chunk[p-2]]&f1[chunk[p-1]]&f2[chunk[p]], hit)
		}
		i = j + vecBlock
	}
	// The state the scalar loop would carry into position i.
	st.r1, st.r2 = f0[chunk[i-2]]&f1[chunk[i-1]], f0[chunk[i-1]]
	return t.steps(chunk, hist, i, st, hit)
}

// teddyBlocks is teddyAVX2 in Go, its exact twin and the reference the
// fuzzers hold it to: from offset i >= 2 on, as long as a whole block
// fits, it returns the offset of the first 32-byte block holding a
// fingerprint candidate, with bit k of cand set when position offset+k is
// one, or the offset where it stopped with cand 0. f is fuse of the
// nibble tables teddyAVX2 takes. Per block it ORs the final position's
// masks first, so a block in which no byte can end a literal costs one
// load per byte.
func teddyBlocks(f *[teddyMaxFinger][256]uint8, chunk []byte, i int) (offset int, cand uint32) {
	f0, f1, f2 := &f[0], &f[1], &f[2]
	for ; i+vecBlock <= len(chunk); i += vecBlock {
		c := (*[vecBlock]byte)(chunk[i:])
		if f2[c[0]]|f2[c[1]]|f2[c[2]]|f2[c[3]]|f2[c[4]]|f2[c[5]]|f2[c[6]]|f2[c[7]]|
			f2[c[8]]|f2[c[9]]|f2[c[10]]|f2[c[11]]|f2[c[12]]|f2[c[13]]|f2[c[14]]|f2[c[15]]|
			f2[c[16]]|f2[c[17]]|f2[c[18]]|f2[c[19]]|f2[c[20]]|f2[c[21]]|f2[c[22]]|f2[c[23]]|
			f2[c[24]]|f2[c[25]]|f2[c[26]]|f2[c[27]]|f2[c[28]]|f2[c[29]]|f2[c[30]]|f2[c[31]] == 0 {
			continue
		}
		w := (*[vecBlock + 2]byte)(chunk[i-2:])
		for k := 0; k < vecBlock; k++ {
			if f0[w[k]]&f1[w[k+1]]&f2[w[k+2]] != 0 {
				cand |= 1 << k
			}
		}
		if cand != 0 {
			return i, cand
		}
	}
	return i, 0
}

// steps is the scalar fingerprint loop over chunk[i:], one position per
// iteration: Scan runs it where a chunk is too short for a block, and it
// is the definition of TeddyState.
func (t *Teddy) steps(chunk, hist []byte, i int, st TeddyState, hit func(end int)) TeddyState {
	f0, f1, f2 := &t.fused[0], &t.fused[1], &t.fused[2]
	r1, r2 := st.r1, st.r2
	if t.fp == 2 {
		r2 = 0xff // position 0 is all ones, before the stream's first byte too
	}
	for ; i < len(chunk); i++ {
		b := chunk[i]
		c := r1 & f2[b]
		r1 = r2 & f1[b]
		r2 = f0[b]
		if c != 0 {
			t.verify(chunk, hist, i, c, hit)
		}
	}
	st.r1, st.r2 = r1, r2
	return st
}

// verify confirms a fingerprint candidate at chunk offset end: some
// literal of a fired bucket must actually occupy the bytes ending there,
// reading hist for the part of an occurrence that precedes the chunk.
// A confirmed position reports once however many literals end on it.
func (t *Teddy) verify(chunk, hist []byte, end int, cand uint8, hit func(end int)) {
	for ; cand != 0; cand &= cand - 1 {
		bkt := bits.TrailingZeros8(cand)
		for _, lit := range t.buckets[bkt] {
			if matchesAt(chunk, hist, end, lit) {
				hit(end)
				return
			}
		}
	}
}

// matchesAt reports whether lit occupies the stream bytes ending at chunk
// offset end, with hist supplying bytes before the chunk (newest last).
func matchesAt(chunk, hist []byte, end int, lit []byte) bool {
	start := end - len(lit) + 1
	if start < 0 {
		// Head in hist — unless it reaches past what was retained.
		return -start <= len(hist) &&
			bytes.Equal(hist[len(hist)+start:], lit[:-start]) && bytes.Equal(chunk[:end+1], lit[-start:])
	}
	// Wholly inside the chunk, the common case: candidates mostly fail
	// within a byte or two, cheaper here than a call to bytes.Equal.
	for j, b := range chunk[start : end+1] {
		if b != lit[j] {
			return false
		}
	}
	return true
}
