package simdscan

import (
	"bytes"
	"encoding/binary"
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
	// teddyBlock is how many bytes one probe of the pair filter clears,
	// teddyMaxBackoff the longest unprobed run after a dirty block.
	teddyBlock      = 16
	teddyMaxBackoff = 1024
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

	// Nibble mask tables, one pair per fingerprint position j (indexing
	// the last fp bytes of each literal): bit k of loNib[j][b&15] and of
	// hiNib[j][b>>4] is set when some literal of bucket k has a byte with
	// that nibble at position j. A byte can occupy position j of bucket
	// k's fingerprint only if both its nibble masks carry bit k — this
	// decomposition is exactly what a 16-lane PSHUFB evaluates per
	// instruction on real SIMD.
	loNib, hiNib [teddyMaxFinger][16]uint8

	// fused[j][b] = loNib[j][b&15] & hiNib[j][b>>4], precomputed at build
	// time: the scalar loop spends one load per position instead of two.
	// Nibble false positives (a byte borrowing its low nibble from one
	// literal and its high nibble from another in the same bucket) are
	// preserved — verification filters them, as on hardware.
	fused [teddyMaxFinger][256]uint8

	// buckets holds the verify literals. Literals are sorted by reversed
	// suffix and split into contiguous runs, so literals sharing fingerprint
	// bytes tend to share a bucket (fewer buckets fire per candidate).
	buckets [teddyBuckets][][]byte

	// Pair filter (doc.go): pairA[c[p]]&pairB[c[p+1]] == 0 proves that no
	// literal ends in [p+1, p+stride]. stride is 4 or 2, or 0 with a
	// 2-byte literal: the filter is off.
	stride       int
	pairA, pairB [256]uint8
}

// TeddyState is the cross-chunk scanner state: the partial fingerprint
// products of the last one / two stream bytes, so a fingerprint spanning
// a chunk boundary still completes on the first bytes of the next chunk.
// The zero value is the stream-start state.
type TeddyState struct {
	// r1 is f0&..&f_{fp-2} of the last fp-1 bytes (the product missing
	// only the final position); r2 is f0 of the last byte (fp=3 only).
	r1, r2 uint8
	// dirty is DirtyBlocks: a diagnostic, never read by the scan.
	dirty int64
}

// DirtyBlocks returns how many 16-byte blocks a failed pair-filter probe
// sent through the exact loop since the stream started (the dirty block
// and the back-off run behind it). Near streamBytes/16, the traffic
// defeats the filter.
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
	// stride <= shortest-1, so that offset len-2-j exists in every literal.
	switch {
	case shortest > 4:
		t.stride = 4
	case shortest > 2:
		t.stride = 2
	}
	for i, l := range uniq {
		bkt := i * teddyBuckets / len(uniq)
		t.buckets[bkt] = append(t.buckets[bkt], l)
		bit := uint8(1) << bkt
		suffix := l[len(l)-t.fp:]
		for j, b := range suffix {
			t.loNib[j][b&0x0f] |= bit
			t.hiNib[j][b>>4] |= bit
		}
		for j := 0; j < t.stride; j++ {
			t.pairA[l[len(l)-2-j]] |= 1 << j
			t.pairB[l[len(l)-1-j]] |= 1 << j
		}
	}
	for j := 0; j < t.fp; j++ {
		for b := 0; b < 256; b++ {
			t.fused[j][b] = t.loNib[j][b&0x0f] & t.hiNib[j][b>>4]
		}
	}
	return t, nil
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

// Fingerprint returns the fingerprint length in bytes (2 or 3).
func (t *Teddy) Fingerprint() int { return t.fp }

// Stride returns the pair filter's stride in bytes — 4 or 2 — or 0 when
// the set holds a 2-byte literal and the filter is off.
func (t *Teddy) Stride() int { return t.stride }

// Scan advances the scanner over one chunk, calling hit(i) for every
// chunk-relative offset i at which at least one literal ends (at most
// once per offset, in increasing order — the Aho-Corasick contract).
// hist holds the stream bytes immediately preceding chunk, newest last;
// occurrences reaching back across the boundary are verified against it.
// The returned state carries the rolling fingerprint across the boundary.
func (t *Teddy) Scan(chunk, hist []byte, st TeddyState, hit func(end int)) TeddyState {
	if t.fp == 2 {
		st.r1 = t.scan2(chunk, hist, st.r1, hit)
		return st
	}
	return t.scan3(chunk, hist, st, hit)
}

// scan2 is the fingerprint-length-2 kernel. r1 enters as f0 of the byte
// before the chunk. Per 8-byte lane load it first ORs the final-position
// masks of all eight bytes — input bytes that can end no literal (the
// overwhelming majority on selective sets) cost one load and one OR each
// — and only on a possible ending computes the full rolling AND. The
// 2-byte literal that sends a set here leaves the pair filter no stride.
func (t *Teddy) scan2(chunk, hist []byte, r1 uint8, hit func(end int)) uint8 {
	f0, f1 := &t.fused[0], &t.fused[1]
	i, n := 0, len(chunk)
	for ; i+8 <= n; i += 8 {
		w := binary.LittleEndian.Uint64(chunk[i:])
		b0, b1, b2, b3 := byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		b4, b5, b6, b7 := byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56)
		e0, e1, e2, e3 := f1[b0], f1[b1], f1[b2], f1[b3]
		e4, e5, e6, e7 := f1[b4], f1[b5], f1[b6], f1[b7]
		if e0|e1|e2|e3|e4|e5|e6|e7 == 0 {
			r1 = f0[b7]
			continue
		}
		c0 := r1 & e0
		v0 := f0[b0]
		c1 := v0 & e1
		v1 := f0[b1]
		c2 := v1 & e2
		v2 := f0[b2]
		c3 := v2 & e3
		v3 := f0[b3]
		c4 := v3 & e4
		v4 := f0[b4]
		c5 := v4 & e5
		v5 := f0[b5]
		c6 := v5 & e6
		v6 := f0[b6]
		c7 := v6 & e7
		r1 = f0[b7]
		if c0|c1|c2|c3|c4|c5|c6|c7 != 0 {
			t.drain(chunk, hist, i, pack8(c0, c1, c2, c3, c4, c5, c6, c7), hit)
		}
	}
	for ; i < n; i++ {
		b := chunk[i]
		c := r1 & f1[b]
		r1 = f0[b]
		if c != 0 {
			t.verify(chunk, hist, i, c, hit)
		}
	}
	return r1
}

// scan3 is the fingerprint-length-3 kernel: the pair filter's skip loop,
// and behind it the exact 8-byte fingerprint loop, the only source of
// hits. Entering an exact position, r1 is f0&f1 of the previous two bytes
// and r2 is f0 of the previous byte; skip does not maintain them, so they
// are recomputed wherever it stops. The first 8 bytes of a chunk and a
// tail shorter than a block always take the exact loop.
func (t *Teddy) scan3(chunk, hist []byte, st TeddyState, hit func(end int)) TeddyState {
	f0, f1, f2 := &t.fused[0], &t.fused[1], &t.fused[2]
	r1, r2 := st.r1, st.r2
	i, n := 0, len(chunk)
	probe := 8            // no probe below this offset
	backoff := teddyBlock // bytes past a dirty block that go unprobed too
	for i+8 <= n {
		if i >= probe {
			if j := t.skip(chunk, i); j != i {
				i, backoff = j, teddyBlock
				r1, r2 = f0[chunk[i-2]]&f1[chunk[i-1]], f0[chunk[i-1]]
			}
			probe = n // what is left is shorter than a block
			if i+teddyBlock <= n {
				// Stopped on a dirty block: back off (doc.go), one block's
				// worth, doubling with every probe in a row that clears nothing.
				probe = i + teddyBlock + backoff
				backoff = min(2*backoff, teddyMaxBackoff)
				st.dirty += int64(min(probe, n)-i) / teddyBlock
			}
		}
		// The exact loop, as far as the next probe; its own loop so that the
		// probe's variables are not live across the 24 byte-wide ones here.
		for stop := min(probe, n-7); i < stop; i += 8 {
			w := binary.LittleEndian.Uint64(chunk[i:])
			b0, b1, b2, b3 := byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
			b4, b5, b6, b7 := byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56)
			e0, e1, e2, e3 := f2[b0], f2[b1], f2[b2], f2[b3]
			e4, e5, e6, e7 := f2[b4], f2[b5], f2[b6], f2[b7]
			if e0|e1|e2|e3|e4|e5|e6|e7 == 0 {
				r1 = f0[b6] & f1[b7]
				r2 = f0[b7]
				continue
			}
			c0 := r1 & e0
			p0 := r2 & f1[b0]
			c1 := p0 & e1
			p1 := f0[b0] & f1[b1]
			c2 := p1 & e2
			p2 := f0[b1] & f1[b2]
			c3 := p2 & e3
			p3 := f0[b2] & f1[b3]
			c4 := p3 & e4
			p4 := f0[b3] & f1[b4]
			c5 := p4 & e5
			p5 := f0[b4] & f1[b5]
			c6 := p5 & e6
			p6 := f0[b5] & f1[b6]
			c7 := p6 & e7
			r1 = f0[b6] & f1[b7]
			r2 = f0[b7]
			if c0|c1|c2|c3|c4|c5|c6|c7 != 0 {
				t.drain(chunk, hist, i, pack8(c0, c1, c2, c3, c4, c5, c6, c7), hit)
			}
		}
	}
	for ; i < n; i++ {
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

// skip steps from chunk offset i >= 1 over 16-byte blocks [i, i+16) while
// the pairs sampled at i-1, i-1+stride, … clear them, and returns the
// start of the first block that is dirty or no longer fits the chunk.
func (t *Teddy) skip(chunk []byte, i int) int {
	a, b := &t.pairA, &t.pairB
	n := len(chunk)
	if t.stride == 4 {
		for ; i+teddyBlock <= n; i += teddyBlock {
			c := (*[teddyBlock]byte)(chunk[i-1:])
			if a[c[0]]&b[c[1]]|a[c[4]]&b[c[5]]|a[c[8]]&b[c[9]]|a[c[12]]&b[c[13]] != 0 {
				break
			}
		}
		return i
	}
	for ; i+teddyBlock <= n; i += teddyBlock {
		c := (*[teddyBlock]byte)(chunk[i-1:])
		if a[c[0]]&b[c[1]]|a[c[2]]&b[c[3]]|a[c[4]]&b[c[5]]|a[c[6]]&b[c[7]]|
			a[c[8]]&b[c[9]]|a[c[10]]&b[c[11]]|a[c[12]]&b[c[13]]|a[c[14]]&b[c[15]] != 0 {
			break
		}
	}
	return i
}

// pack8 lays the candidate masks of one 8-byte block into a word, byte k
// for offset k, so the block is tested and drained in a register.
func pack8(c0, c1, c2, c3, c4, c5, c6, c7 uint8) uint64 {
	return uint64(c0) | uint64(c1)<<8 | uint64(c2)<<16 | uint64(c3)<<24 |
		uint64(c4)<<32 | uint64(c5)<<40 | uint64(c6)<<48 | uint64(c7)<<56
}

// drain verifies the candidates of one 8-byte block in offset order.
func (t *Teddy) drain(chunk, hist []byte, base int, cand uint64, hit func(end int)) {
	for cand != 0 {
		sh := bits.TrailingZeros64(cand) &^ 7
		t.verify(chunk, hist, base+sh>>3, uint8(cand>>sh), hit)
		cand &^= 0xff << sh
	}
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
