// AVX2 body of VecMatAdd. It handles only the full 4-wide prefix of the
// output: n is pre-rounded down to a multiple of 4 by the Go dispatch
// layer, which finishes the leftover columns with the scalar body.
//
// Bit-identity with the scalar body rests on three rules:
//   - each lane holds one output and adds the products in ascending k, so
//     every output sums in the scalar order;
//   - a product is VMULPD then VADDPD, never a fused multiply-add, which
//     rounds once and so changes bits;
//   - the accumulator is the first source of VADDPD, as in acc += x*w,
//     so when both operands are NaN the result keeps the same payload.
// Every instruction is VEX-encoded: one legacy-SSE instruction between
// 256-bit ones costs an SSE/AVX transition on every iteration.

#include "textflag.h"

// func vecMatAVX2(acc *float64, n int, x *float64, k int, w *float64, ld int, skip bool)
//
// acc[j] += x[kk]*w[kk*ld+j] for kk ascending in [0, k) and j in [0, n).
// With skip set, a kk whose x[kk] is ±0 adds nothing (a NaN is never
// skipped). Sixteen outputs live in four YMM accumulators across the
// whole k loop, then four in one. n must be a multiple of 4.
TEXT ·vecMatAVX2(SB), NOSPLIT, $0-49
	MOVQ    acc+0(FP), DI
	MOVQ    n+8(FP), CX
	MOVQ    x+16(FP), SI
	MOVQ    k+24(FP), DX
	MOVQ    w+32(FP), R8
	MOVQ    ld+40(FP), R9
	MOVBLZX skip+48(FP), R10
	SHLQ    $3, R9
	LEAQ    (SI)(DX*8), R13
	VXORPD  X8, X8, X8

block16:
	CMPQ    CX, $16
	JLT     block4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, R11
	MOVQ    R8, R12
	CMPQ    R11, R13
	JEQ     store16

	// Loop heads start a 64-byte line, so the loop's speed does not
	// depend on where the linker places this function.
	PCALIGN $64

loop16:
	VBROADCASTSD (R11), Y4
	TESTQ        R10, R10
	JZ           mul16
	VUCOMISD     X8, X4
	JPS          mul16
	JEQ          next16

mul16:
	VMULPD (R12), Y4, Y5
	VMULPD 32(R12), Y4, Y6
	VMULPD 64(R12), Y4, Y7
	VMULPD 96(R12), Y4, Y9
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y9, Y3, Y3

next16:
	ADDQ $8, R11
	ADDQ R9, R12
	CMPQ R11, R13
	JNE  loop16

store16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R8
	SUBQ    $16, CX
	JMP     block16

block4:
	CMPQ    CX, $4
	JLT     done
	VMOVUPD (DI), Y0
	MOVQ    SI, R11
	MOVQ    R8, R12
	CMPQ    R11, R13
	JEQ     store4

	PCALIGN $64

loop4:
	VBROADCASTSD (R11), Y4
	TESTQ        R10, R10
	JZ           mul4
	VUCOMISD     X8, X4
	JPS          mul4
	JEQ          next4

mul4:
	VMULPD (R12), Y4, Y5
	VADDPD Y5, Y0, Y0

next4:
	ADDQ $8, R11
	ADDQ R9, R12
	CMPQ R11, R13
	JNE  loop4

store4:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R8
	SUBQ    $4, CX
	JMP     block4

done:
	VZEROUPPER
	RET
