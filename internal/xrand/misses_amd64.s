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

// The kernels take the states word-major: word j of slot i at
// 64·j + 8·i, so each vector load holds one state word of consecutive
// slots. Every kernel keeps its draw count in DI and its hit mask in SI.

// func missesAVX512(w *[4][8]uint64, thresh uint64, n int64) (misses int64, hits uint)
//
// Z0..Z3 hold state words s0..s3 of the eight slots. AVX-512F has no
// 64-bit multiply either (VPMULLQ is AVX-512DQ), so x·5 and x·9 stay a
// shift and an add; VPROLQ rotates, VPTERNLOGQ $0x96 is a three-way
// xor, and VPCMPUQ compares unsigned into a mask register. KORTESTW
// and KMOVW are the AVX-512F forms, so the kernel needs nothing more.
TEXT ·missesAVX512(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), AX
	MOVQ thresh+8(FP), BX
	MOVQ n+16(FP), CX

	VMOVDQU64    0(AX), Z0
	VMOVDQU64    64(AX), Z1
	VMOVDQU64    128(AX), Z2
	VMOVDQU64    192(AX), Z3
	VPBROADCASTQ BX, Z4

	XORQ DI, DI
	XORQ SI, SI
	CMPQ DI, CX
	JGE  done

loop:
	// u = rotl(s1·5, 7)·9
	VPSLLQ $2, Z1, Z5
	VPADDQ Z1, Z5, Z5
	VPROLQ $7, Z5, Z5
	VPSLLQ $3, Z5, Z6
	VPADDQ Z6, Z5, Z5

	// The xoshiro256** transition: s1 and s2 take s0 and one more word
	// in one VPTERNLOGQ each, and s0 takes s3 ^ s1.
	VPSLLQ     $17, Z1, Z6         // t = s1 << 17
	VPXORQ     Z1, Z3, Z3          // s3 ^= s1
	VPTERNLOGQ $0x96, Z2, Z0, Z1   // s1 ^= s0 ^ s2
	VPTERNLOGQ $0x96, Z6, Z0, Z2   // s2 ^= s0 ^ t
	VPXORQ     Z3, Z0, Z0          // s0 ^= s3
	VPROLQ     $45, Z3, Z3         // s3 = rotl(s3, 45)

	// K1 = slots with u < thresh (predicate 1 is LT).
	VPCMPUQ  $1, Z4, Z5, K1
	KORTESTW K1, K1
	JNZ      hit
	INCQ     DI
	CMPQ     DI, CX
	JLT      loop
	JMP      done

hit:
	KMOVW K1, SI

done:
	VMOVDQU64 Z0, 0(AX)
	VMOVDQU64 Z1, 64(AX)
	VMOVDQU64 Z2, 128(AX)
	VMOVDQU64 Z3, 192(AX)
	VZEROUPPER
	MOVQ DI, misses+24(FP)
	MOVQ SI, hits+32(FP)
	RET

// AVX2_THRESH sets Y5 to the sign bit and Y4 to thresh (in BX) with its
// sign bit flipped, in every lane: VPCMPGTQ compares signed, so the
// unsigned test u < thresh flips both sign bits first.
#define AVX2_THRESH \
	MOVQ         $0x8000000000000000, DX; \
	MOVQ         DX, X5; \
	VPBROADCASTQ X5, Y5; \
	XORQ         DX, BX; \
	MOVQ         BX, X4; \
	VPBROADCASTQ X4, Y4

// XOSHIRO4 sets U to the draw rotl(s1·5, 7)·9 of each of four slots
// whose state words are S0..S3, steps their xoshiro256** transition,
// and sets U's lanes to all ones where the draw is below thresh; T is
// scratch. AVX2 has no 64-bit multiply, so x·5 is (x<<2)+x and x·9 is
// (x<<3)+x, and a rotate is two shifts and an OR.
#define XOSHIRO4(S0, S1, S2, S3, U, T) \
	VPSLLQ   $2, S1, U; \
	VPADDQ   S1, U, U; \
	VPSLLQ   $7, U, T; \
	VPSRLQ   $57, U, U; \
	VPOR     T, U, U; \
	VPSLLQ   $3, U, T; \
	VPADDQ   T, U, U; \
	VPSLLQ   $17, S1, T; \
	VPXOR    S0, S2, S2; \
	VPXOR    S1, S3, S3; \
	VPXOR    S2, S1, S1; \
	VPXOR    S3, S0, S0; \
	VPXOR    T, S2, S2; \
	VPSLLQ   $45, S3, T; \
	VPSRLQ   $19, S3, S3; \
	VPOR     T, S3, S3; \
	VPXOR    Y5, U, U; \
	VPCMPGTQ U, Y4, U

// func misses4AVX2(w *[4][8]uint64, thresh uint64, n int64) (misses int64, hits uint)
//
// Y0..Y3 hold state words s0..s3 of slots 0 to 3.
TEXT ·misses4AVX2(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), AX
	MOVQ thresh+8(FP), BX
	MOVQ n+16(FP), CX

	VMOVDQU 0(AX), Y0
	VMOVDQU 64(AX), Y1
	VMOVDQU 128(AX), Y2
	VMOVDQU 192(AX), Y3
	AVX2_THRESH

	XORQ DI, DI
	XORQ SI, SI
	CMPQ DI, CX
	JGE  done

loop:
	XOSHIRO4(Y0, Y1, Y2, Y3, Y6, Y7)
	VMOVMSKPD Y6, SI
	TESTQ     SI, SI
	JNZ       done
	INCQ      DI
	CMPQ      DI, CX
	JLT       loop

done:
	VMOVDQU Y0, 0(AX)
	VMOVDQU Y1, 64(AX)
	VMOVDQU Y2, 128(AX)
	VMOVDQU Y3, 192(AX)
	VZEROUPPER
	MOVQ DI, misses+24(FP)
	MOVQ SI, hits+32(FP)
	RET

// func misses8AVX2(w *[4][8]uint64, thresh uint64, n int64) (misses int64, hits uint)
//
// Y0..Y3 hold state words s0..s3 of slots 0 to 3, and Y8..Y11 those of
// slots 4 to 7. The two sets are independent, so their steps overlap.
TEXT ·misses8AVX2(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), AX
	MOVQ thresh+8(FP), BX
	MOVQ n+16(FP), CX

	VMOVDQU 0(AX), Y0
	VMOVDQU 64(AX), Y1
	VMOVDQU 128(AX), Y2
	VMOVDQU 192(AX), Y3
	VMOVDQU 32(AX), Y8
	VMOVDQU 96(AX), Y9
	VMOVDQU 160(AX), Y10
	VMOVDQU 224(AX), Y11
	AVX2_THRESH

	XORQ DI, DI
	XORQ SI, SI
	CMPQ DI, CX
	JGE  done

loop:
	XOSHIRO4(Y0, Y1, Y2, Y3, Y6, Y7)
	XOSHIRO4(Y8, Y9, Y10, Y11, Y12, Y13)
	VPOR  Y6, Y12, Y14
	VPTEST Y14, Y14
	JNZ   hit
	INCQ  DI
	CMPQ  DI, CX
	JLT   loop
	JMP   done

hit:
	VMOVMSKPD Y6, SI
	VMOVMSKPD Y12, DX
	SHLQ      $4, DX
	ORQ       DX, SI

done:
	VMOVDQU Y0, 0(AX)
	VMOVDQU Y1, 64(AX)
	VMOVDQU Y2, 128(AX)
	VMOVDQU Y3, 192(AX)
	VMOVDQU Y8, 32(AX)
	VMOVDQU Y9, 96(AX)
	VMOVDQU Y10, 160(AX)
	VMOVDQU Y11, 224(AX)
	VZEROUPPER
	MOVQ DI, misses+24(FP)
	MOVQ SI, hits+32(FP)
	RET
