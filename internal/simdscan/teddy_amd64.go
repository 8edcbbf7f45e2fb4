package simdscan

// hasAVX2 reports whether CPUID leaf 7 announces AVX2 (EBX bit 5) and the
// OS saves the XMM and YMM registers across context switches: leaf 1 ECX
// has OSXSAVE (bit 27) and AVX (bit 28), and XCR0 has bits 1 and 2.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if maxLeaf < 7 || ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuid and xgetbv run the instructions of those names (teddy_amd64.s);
// xgetbv reads XCR0.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// teddyAVX2 tests the 32-byte blocks of chunk from offset i >= 2 on, as
// long as a whole block fits, and returns the offset of the first block
// holding a fingerprint candidate with bit k of cand set when position
// offset+k is one, or the offset where it stopped with cand 0. Per block
// it looks up the final fingerprint position first, so a block in which
// no byte can end a literal costs one load.
//
//go:noescape
func teddyAVX2(nib *[teddyMaxFinger][2][16]uint8, chunk []byte, i int) (offset int, cand uint32)
