// Package simdscan holds the Teddy multi-literal scan kernels of the
// software fast path, two of them behind one Teddy.Scan: on an amd64 CPU
// with AVX2, an assembly loop that tests 32 input bytes per step with
// VPSHUFB, the way a Hyperscan-class engine writes it; elsewhere, a pure
// Go routine that reads 8 bytes per load behind a strided pair filter.
// UseAVX2, set from CPUID at package init, chooses; the Go kernel is also
// the reference the fuzzers hold the AVX2 one to.
//
// Teddy is a multi-literal fingerprint prefilter in the lineage of
// Hyperscan's Teddy. Literals are grouped into at most 8 buckets;
// per fingerprint position a low-nibble and a high-nibble mask table
// map an input byte to the set of buckets it could continue. ANDing the
// masks of the fingerprint's positions names the buckets whose literals
// may end at a byte, and a verify step confirms against the actual
// literal bytes.
//
// The AVX2 kernel (teddy_amd64.s) holds the six nibble tables in YMM
// registers, both 128-bit lanes alike, and per 32-byte block looks the
// block up as the final fingerprint position first: a block in which no
// byte can end a literal is cleared after one load, two VPSHUFBs and a
// VPTEST. Otherwise it looks up the same block shifted back one and two
// bytes for the earlier positions, and returns the block's candidate
// mask, one bit per position, to its Go caller (scanAVX2), which verifies each. A
// 2-byte fingerprint is the 3-byte one with an all-ones first table. The
// first two bytes of a chunk, whose fingerprints reach into the previous
// chunk through TeddyState, and a tail shorter than a block take the
// scalar loop; there is no pair filter in front.
//
// The portable kernel gets the same table structure with the two nibble
// lookups fused into one 256-entry table per position, and walks the
// input 8 bytes per load, ANDing the per-position masks through a
// rolling window. In front of that loop sits a strided pair filter, Hyperscan's
// strided literal front-end in miniature. NewTeddy builds two
// 256-entry masks: bit j of pairA[x] says some literal has x at offset
// len-2-j, bit j of pairB[y] that some literal has y at offset
// len-1-j, for j below the stride k. Soundness: if a literal L ends at
// stream offset e in [p+1, p+k], put j = e-(p+1) < k; then the bytes
// at p and p+1 are L[len-2-j] and L[len-1-j], both offsets exist
// because k <= shortest-1, so bit j is set in pairA[c[p]] and in
// pairB[c[p+1]]. Contrapositive: pairA[c[p]]&pairB[c[p+1]] == 0 proves
// that no literal ends in [p+1, p+k], and 16/k pairs sampled k apart
// clear a 16-byte block with no rolling state and no verify. k is a
// function of the set alone: 4 when the shortest literal has 5 or
// more bytes, 2 when it has 3 or 4 (refmatch caps a mandatory literal
// at 8 bytes, so no compiled program could use a wider stride); a
// 2-byte literal means fingerprint 2 and no filter. Only a block the
// pairs cannot clear goes through the exact fingerprint loop, which
// stays the single source of hits; the rolling products are
// recomputed from the two bytes before it. The first 8 bytes of a
// chunk and a tail shorter than a block always take the exact loop,
// so TeddyState means at a chunk boundary what it always did.
// Back-off: a filter that is dirty on every block would only add
// work, so after a dirty block the next 16 bytes are scanned exactly
// without a probe, and the unprobed run doubles (to 1 KiB at most)
// with every probe in a row that clears nothing; a probe that clears
// a block resets it.
//
// Everything in this package is allocation-free on the scan path and
// safe for concurrent use: the scan is a pure function over caller state,
// and compiled Teddy tables are immutable after NewTeddy.
package simdscan
