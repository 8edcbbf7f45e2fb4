//go:build !amd64

package simdscan

// hasAVX2 is false: the AVX2 kernel is amd64 assembly.
func hasAVX2() bool { return false }

// teddyAVX2 is never called where hasAVX2 is false.
func teddyAVX2(nib *[teddyMaxFinger][2][16]uint8, chunk []byte, i int) (offset int, cand uint32) {
	panic("simdscan: no AVX2 kernel on this platform")
}
