#include "textflag.h"

// The low-nibble mask, broadcast with VPBROADCASTB: a legacy-SSE move
// into an X register inside this AVX loop would cost a state transition.
DATA nibbleMask<>+0(SB)/1, $0x0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $1

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// LOOKUP sets dst to the bucket masks of the 32 bytes at src: the AND of
// the low-nibble table lo and the high-nibble table hi, each indexed by
// VPSHUFB. Y6 holds 0x0f in every byte; tmp is clobbered.
#define LOOKUP(src, lo, hi, tmp, dst) \
	VMOVDQU src, dst \
	VPSRLW  $4, dst, tmp \
	VPAND   Y6, dst, dst \
	VPAND   Y6, tmp, tmp \
	VPSHUFB dst, lo, dst \
	VPSHUFB tmp, hi, tmp \
	VPAND   tmp, dst, dst

// func teddyAVX2(nib *[3][2][16]uint8, chunk []byte, i int) (offset int, cand uint32)
//
// Y0-Y5 hold the low- and high-nibble tables of fingerprint positions 0,
// 1 and 2 (the literal's last byte) in both 128-bit lanes. For a block
// at SI+CX, position 2 is looked up in the bytes at CX, position 1 in
// those at CX-1 and position 0 at CX-2, so lane k of the AND is the
// candidate mask of the fingerprint ending at CX+k.
TEXT ·teddyAVX2(SB), NOSPLIT, $0-52
	MOVQ nib+0(FP), AX
	MOVQ chunk_base+8(FP), SI
	MOVQ chunk_len+16(FP), DX
	MOVQ i+32(FP), CX
	VBROADCASTI128 0(AX), Y0
	VBROADCASTI128 16(AX), Y1
	VBROADCASTI128 32(AX), Y2
	VBROADCASTI128 48(AX), Y3
	VBROADCASTI128 64(AX), Y4
	VBROADCASTI128 80(AX), Y5
	VPBROADCASTB nibbleMask<>(SB), Y6
	VPXOR Y10, Y10, Y10
	SUBQ $32, DX // the last offset a whole block starts at

loop:
	CMPQ CX, DX
	JGT  clean
	// Prefetch 4 KiB ahead, never past the last block: a body that just
	// came off the network is not in the cache, and the loop outruns the
	// hardware prefetcher.
	LEAQ    4096(CX), R8
	CMPQ    R8, DX
	CMOVQGT DX, R8
	PREFETCHT0 (SI)(R8*1)
	LOOKUP((SI)(CX*1), Y4, Y5, Y8, Y7)
	VPTEST Y7, Y7
	JZ     next
	LOOKUP(-1(SI)(CX*1), Y2, Y3, Y9, Y8)
	VPAND  Y8, Y7, Y7
	LOOKUP(-2(SI)(CX*1), Y0, Y1, Y9, Y8)
	VPAND  Y8, Y7, Y7
	VPCMPEQB Y10, Y7, Y7
	VPMOVMSKB Y7, AX
	NOTL AX
	TESTL AX, AX
	JNZ  dirty

next:
	ADDQ $32, CX
	JMP  loop

dirty:
	MOVQ CX, offset+40(FP)
	MOVL AX, cand+48(FP)
	VZEROUPPER
	RET

clean:
	MOVQ CX, offset+40(FP)
	MOVL $0, cand+48(FP)
	VZEROUPPER
	RET
