// The AVX bodies of the package's one vector primitive (see axpy.go) on
// amd64, eight lanes wide. The Go wrappers in axpy_amd64.go call them where
// useAVX is set (once, at package init, from HasAVX) and run axpy1Go /
// axpy4RowsGo everywhere else. Lanes run across different elements j; each
// element is computed as d[j] + a*b[j] with one multiply and one add
// (VMULPS then VADDPS; never a fused multiply-add), with the operand roles
// the compiler's scalar code has (product = b*a, then product + d), so every
// element is bit-for-bit what axpy1Go / axpy4RowsGo produce. No body runs a
// legacy-SSE instruction, and each ends in VZEROUPPER. The callers in
// axpy.go and blocked.go have checked every length.

#include "textflag.h"

// VROW does d[j:j+8] += a*b[j:j+8] for one destination row on Y registers,
// d[j:j+4] on X registers: bvec holds b's elements, avec the coefficient in
// every lane, dptr the row base and AX the element index j. The product's
// first source is b and the sum's is the product.
#define VROW(bvec, avec, dptr, off, t) \
	VMULPS  avec, bvec, t          \
	VADDPS  off(dptr)(AX*4), t, t  \
	VMOVUPS t, off(dptr)(AX*4)

// VROW1 is the scalar form of VROW for the tail.
#define VROW1(bvec, avec, dptr, t) \
	VMULSS avec, bvec, t          \
	VADDSS (dptr)(AX*4), t, t     \
	VMOVSS t, (dptr)(AX*4)

// VROWRUN is a whole single-row pass, d[j] += a*b[j] for j in 0..CX:
// sixteen elements per iteration, then one eight-lane step, one four-lane
// step and a scalar tail. It jumps straight to end if the row's bit in the
// zero mask (the sign bits of X14) is set; the mask is re-read from X14
// because DX is also the loop's vector bound. ya and xa are the same
// register, holding the coefficient in every lane, by its Y and X names.
#define VROWRUN(bit, ya, xa, dptr, vec16, vec8, vec4, tail, end) \
	VMOVMSKPS X14, DX           \
	TESTQ     $bit, DX          \
	JNZ       end               \
	MOVQ      CX, DX            \
	ANDQ      $-16, DX          \
	XORQ      AX, AX            \
vec16:                          \
	CMPQ      AX, DX            \
	JGE       vec8              \
	VMOVUPS   (SI)(AX*4), Y4    \
	VMOVUPS   32(SI)(AX*4), Y5  \
	VROW(Y4, ya, dptr, 0, Y6)   \
	VROW(Y5, ya, dptr, 32, Y7)  \
	ADDQ      $16, AX           \
	JMP       vec16             \
vec8:                           \
	TESTQ     $8, CX            \
	JZ        vec4              \
	VMOVUPS   (SI)(AX*4), Y4    \
	VROW(Y4, ya, dptr, 0, Y6)   \
	ADDQ      $8, AX            \
vec4:                           \
	TESTQ     $4, CX            \
	JZ        tail              \
	VMOVUPS   (SI)(AX*4), X4    \
	VROW(X4, xa, dptr, 0, X6)   \
	ADDQ      $4, AX            \
tail:                           \
	CMPQ      AX, CX            \
	JGE       end               \
	VMOVSS    (SI)(AX*4), X4    \
	VROW1(X4, xa, dptr, X6)     \
	INCQ      AX                \
	JMP       tail              \
end:

// func axpy1AVX(d, b []float32, a float32)
TEXT ·axpy1AVX(SB), NOSPLIT, $0-52
	MOVQ         d_base+0(FP), R8
	MOVQ         b_base+24(FP), SI
	MOVQ         b_len+32(FP), CX
	VBROADCASTSS a+48(FP), Y0
	VPXOR        X14, X14, X14 // an empty zero mask
	VROWRUN(1, Y0, X0, R8, loop16, loop8, loop4, tail, done)
	VZEROUPPER
	RET

// func axpy4RowsAVX(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32, k, cstride int, skip bool)
//
// Four destination rows share every load of b: for p in 0..k,
// d_r[j] += c_r[p*cstride]*b[p*stride+j] for j in 0..len(d0). The terms
// reach each element one at a time, in ascending p. With skip set, a term
// whose four coefficients are all non-zero still takes the four-row pass; a
// term holding an exact zero (of either sign) runs a single-row pass for
// each of its non-zero rows and leaves its zero rows alone.
TEXT ·axpy4RowsAVX(SB), NOSPLIT, $0-241
	MOVQ d0_base+0(FP), R8
	MOVQ d1_base+24(FP), R9
	MOVQ d2_base+48(FP), R10
	MOVQ d3_base+72(FP), R11
	MOVQ d0_len+8(FP), CX
	MOVQ b_base+96(FP), SI
	MOVQ stride+120(FP), BX
	SHLQ $2, BX
	MOVQ c0_base+128(FP), R12
	MOVQ c1_base+152(FP), R13
	MOVQ c2_base+176(FP), R14
	MOVQ c3_base+200(FP), R15
	MOVQ k+224(FP), DI

term:
	TESTQ        DI, DI
	JLE          done
	VBROADCASTSS (R12), Y0
	VBROADCASTSS (R13), Y1
	VBROADCASTSS (R14), Y2
	VBROADCASTSS (R15), Y3
	CMPB         skip+240(FP), $0
	JEQ          full

	// X14 lane r is all ones iff c_r is ±0 (its bits shifted left by one are
	// zero), built from the low lanes of the broadcasts; VMOVMSKPS gathers
	// the lanes' sign bits into the zero mask.
	VUNPCKLPS X1, X0, X14
	VUNPCKLPS X3, X2, X15
	VMOVLHPS  X15, X14, X14
	VPSLLD    $1, X14, X14
	VPXOR     X15, X15, X15
	VPCMPEQD  X15, X14, X14
	VMOVMSKPS X14, DX
	TESTQ     DX, DX
	JZ        full
	VROWRUN(1, Y0, X0, R8, v16r0, v8r0, v4r0, vtail0, vend0)
	VROWRUN(2, Y1, X1, R9, v16r1, v8r1, v4r1, vtail1, vend1)
	VROWRUN(4, Y2, X2, R10, v16r2, v8r2, v4r2, vtail2, vend2)
	VROWRUN(8, Y3, X3, R11, v16r3, v8r3, v4r3, vtail3, vend3)
	JMP       next

full:
	MOVQ CX, DX
	ANDQ $-16, DX
	XORQ AX, AX

loop16:
	CMPQ    AX, DX
	JGE     loop8
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VROW(Y4, Y0, R8, 0, Y6)
	VROW(Y5, Y0, R8, 32, Y7)
	VROW(Y4, Y1, R9, 0, Y8)
	VROW(Y5, Y1, R9, 32, Y9)
	VROW(Y4, Y2, R10, 0, Y10)
	VROW(Y5, Y2, R10, 32, Y11)
	VROW(Y4, Y3, R11, 0, Y12)
	VROW(Y5, Y3, R11, 32, Y13)
	ADDQ    $16, AX
	JMP     loop16

loop8:
	// AX is len(d0) with its low four bits cleared: bit 3 says whether an
	// eight-lane vector is left, bit 2 a four-lane one.
	TESTQ   $8, CX
	JZ      loop4
	VMOVUPS (SI)(AX*4), Y4
	VROW(Y4, Y0, R8, 0, Y6)
	VROW(Y4, Y1, R9, 0, Y7)
	VROW(Y4, Y2, R10, 0, Y8)
	VROW(Y4, Y3, R11, 0, Y9)
	ADDQ    $8, AX

loop4:
	TESTQ   $4, CX
	JZ      tail
	VMOVUPS (SI)(AX*4), X4
	VROW(X4, X0, R8, 0, X6)
	VROW(X4, X1, R9, 0, X7)
	VROW(X4, X2, R10, 0, X8)
	VROW(X4, X3, R11, 0, X9)
	ADDQ    $4, AX

tail:
	CMPQ   AX, CX
	JGE    next
	VMOVSS (SI)(AX*4), X4
	VROW1(X4, X0, R8, X6)
	VROW1(X4, X1, R9, X7)
	VROW1(X4, X2, R10, X8)
	VROW1(X4, X3, R11, X9)
	INCQ   AX
	JMP    tail

next:
	ADDQ BX, SI
	MOVQ cstride+232(FP), DX
	SHLQ $2, DX
	ADDQ DX, R12
	ADDQ DX, R13
	ADDQ DX, R14
	ADDQ DX, R15
	DECQ DI
	JMP  term

done:
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
