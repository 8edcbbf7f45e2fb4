// Package simdscan holds the Teddy multi-literal scan kernel of the
// software fast path: one algorithm, a loop over 32-byte blocks behind
// Teddy.Scan, with two implementations of its block function. On an
// amd64 CPU with AVX2 it is an assembly loop that tests a block with
// VPSHUFB, the way a Hyperscan-class engine writes it (teddyAVX2);
// elsewhere it is the same loop in Go (teddyBlocks), which also serves as
// the exact reference the fuzzers hold the assembly to. UseAVX2, set from
// CPUID at package init, chooses.
//
// Teddy is a multi-literal fingerprint prefilter in the lineage of
// Hyperscan's Teddy. Literals are grouped into at most 8 buckets;
// per fingerprint position a low-nibble and a high-nibble mask table
// map an input byte to the set of buckets it could continue. ANDing the
// masks of the fingerprint's positions names the buckets whose literals
// may end at a byte, and a verify step confirms against the actual
// literal bytes. A 2-byte fingerprint is the 3-byte one with an all-ones
// first table, so one 3-position loop serves both.
//
// Per 32-byte block, the block function looks the block up as the final
// fingerprint position first: a block in which no byte can end a literal
// is cleared there. Otherwise it looks up the same block shifted back one
// and two bytes for the earlier positions, and returns the block's
// candidate mask, one bit per position, to Scan, which verifies each
// candidate and counts the block's 16-byte halves that held one
// (DirtyBlocks). The first two bytes of a chunk, whose fingerprints reach
// into the previous chunk through TeddyState, and a tail shorter than a
// block take the scalar loop (steps), which defines TeddyState.
//
// The two implementations differ only in how they look a byte up. The
// assembly holds the six nibble tables in YMM registers, both 128-bit
// lanes alike, and per block spends one load, two VPSHUFBs and a VPTEST
// on the all-clear test; the Go twin reads a 256-entry table per position
// with the two nibble lookups fused (fuse), one load per byte. Both
// return the same (offset, candidate mask) at every call, so hits, state
// and DirtyBlocks are the same on every host.
//
// Everything in this package is allocation-free on the scan path and
// safe for concurrent use: the scan is a pure function over caller state,
// and compiled Teddy tables are immutable after NewTeddy.
package simdscan
