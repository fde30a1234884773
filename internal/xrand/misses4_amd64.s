#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// func misses4AVX2(lanes *[4]Rand, thresh uint64, n int64) (misses int64, hits uint)
//
// Y0..Y3 hold state words s0..s3, lane i of each holding stream i.
// AVX2 has no 64-bit multiply, so x·5 is (x<<2)+x and x·9 is (x<<3)+x,
// and rotates are two shifts and an OR. VPCMPGTQ compares signed, so
// the unsigned test u < thresh flips both sign bits first.
TEXT ·misses4AVX2(SB), NOSPLIT, $0-40
	MOVQ lanes+0(FP), AX
	MOVQ thresh+8(FP), BX
	MOVQ n+16(FP), CX

	// Load one stream per register and transpose the 4×4 words, so
	// that register j holds word j of every stream.
	VMOVDQU 0(AX), Y4
	VMOVDQU 32(AX), Y5
	VMOVDQU 64(AX), Y6
	VMOVDQU 96(AX), Y7
	VPUNPCKLQDQ Y5, Y4, Y8     // a0 b0 | a2 b2
	VPUNPCKHQDQ Y5, Y4, Y9     // a1 b1 | a3 b3
	VPUNPCKLQDQ Y7, Y6, Y10    // c0 d0 | c2 d2
	VPUNPCKHQDQ Y7, Y6, Y11    // c1 d1 | c3 d3
	VPERM2I128  $0x20, Y10, Y8, Y0 // s0
	VPERM2I128  $0x20, Y11, Y9, Y1 // s1
	VPERM2I128  $0x31, Y10, Y8, Y2 // s2
	VPERM2I128  $0x31, Y11, Y9, Y3 // s3

	MOVQ         $0x8000000000000000, DX
	MOVQ         DX, X5
	VPBROADCASTQ X5, Y5        // the sign bit
	XORQ         DX, BX
	MOVQ         BX, X4
	VPBROADCASTQ X4, Y4        // thresh with its sign bit flipped

	XORQ DI, DI // misses
	XORQ SI, SI // hits
	CMPQ DI, CX
	JGE  done

loop:
	// u = rotl(s1·5, 7)·9
	VPSLLQ $2, Y1, Y6
	VPADDQ Y1, Y6, Y6
	VPSLLQ $7, Y6, Y7
	VPSRLQ $57, Y6, Y6
	VPOR   Y7, Y6, Y6
	VPSLLQ $3, Y6, Y7
	VPADDQ Y7, Y6, Y6

	// The xoshiro256** transition.
	VPSLLQ $17, Y1, Y7 // t = s1 << 17
	VPXOR  Y0, Y2, Y2  // s2 ^= s0
	VPXOR  Y1, Y3, Y3  // s3 ^= s1
	VPXOR  Y2, Y1, Y1  // s1 ^= s2
	VPXOR  Y3, Y0, Y0  // s0 ^= s3
	VPXOR  Y7, Y2, Y2  // s2 ^= t
	VPSLLQ $45, Y3, Y7
	VPSRLQ $19, Y3, Y3
	VPOR   Y7, Y3, Y3  // s3 = rotl(s3, 45)

	// hits = lanes with thresh^sign > u^sign, signed.
	VPXOR     Y5, Y6, Y6
	VPCMPGTQ  Y6, Y4, Y6
	VMOVMSKPD Y6, SI
	TESTQ     SI, SI
	JNZ       done
	INCQ      DI
	CMPQ      DI, CX
	JLT       loop

done:
	// Transpose back and store.
	VPUNPCKLQDQ Y1, Y0, Y8
	VPUNPCKHQDQ Y1, Y0, Y9
	VPUNPCKLQDQ Y3, Y2, Y10
	VPUNPCKHQDQ Y3, Y2, Y11
	VPERM2I128  $0x20, Y10, Y8, Y4
	VPERM2I128  $0x20, Y11, Y9, Y5
	VPERM2I128  $0x31, Y10, Y8, Y6
	VPERM2I128  $0x31, Y11, Y9, Y7
	VMOVDQU     Y4, 0(AX)
	VMOVDQU     Y5, 32(AX)
	VMOVDQU     Y6, 64(AX)
	VMOVDQU     Y7, 96(AX)
	VZEROUPPER
	MOVQ DI, misses+24(FP)
	MOVQ SI, hits+32(FP)
	RET
