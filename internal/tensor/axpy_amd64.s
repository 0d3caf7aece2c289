// Bodies of the package's one vector primitive (see axpy.go) on amd64. Each
// function holds two: a VEX-256 (AVX) body on eight lanes, taken when useAVX
// is set (once, at package init, from CPUID and XGETBV; axpy_amd64.go), and
// an SSE2 body on four lanes, the amd64 baseline, for every other host.
// Lanes run across different elements j; each element is computed as
// d[j] + a*b[j] with one multiply and one add (MULPS then ADDPS, VMULPS then
// VADDPS; never a fused multiply-add), with the operand roles the compiler's
// scalar code has (product = b*a, then product + d), so every element is
// bit-for-bit what axpy1Go / axpy4RowsGo produce, whichever body runs. The
// AVX body runs no legacy-SSE instruction and ends in VZEROUPPER. The
// callers in axpy.go and blocked.go have checked every length.

#include "textflag.h"

// ROW4 does d[j:j+4] += a*b[j:j+4] for one destination row: bvec holds
// b[j:j+4], avec the coefficient in all four lanes, dptr the row base and AX
// the element index j.
#define ROW4(bvec, avec, dptr, off, t0, t1) \
	MOVAPS bvec, t0            \
	MULPS  avec, t0            \
	MOVUPS off(dptr)(AX*4), t1 \
	ADDPS  t1, t0              \
	MOVUPS t0, off(dptr)(AX*4)

// ROW1 is the scalar form of ROW4 for the tail.
#define ROW1(bvec, avec, dptr, t0) \
	MOVAPS bvec, t0          \
	MULSS  avec, t0          \
	ADDSS  (dptr)(AX*4), t0  \
	MOVSS  t0, (dptr)(AX*4)

// ROWRUN is a whole single-row pass, d[j] += a*b[j] for j in 0..CX, unless
// the row's bit in the zero mask (the sign bits of X14) is set, in which
// case it jumps straight to end. The mask is re-read from X14 because DX is
// also the loop's vector bound.
#define ROWRUN(bit, avec, dptr, vec8, vec4, tail, end) \
	MOVMSKPS X14, DX          \
	TESTQ    $bit, DX         \
	JNZ      end              \
	MOVQ     CX, DX           \
	ANDQ     $-8, DX          \
	XORQ     AX, AX           \
vec8:                         \
	CMPQ     AX, DX           \
	JGE      vec4             \
	MOVUPS   (SI)(AX*4), X4   \
	MOVUPS   16(SI)(AX*4), X5 \
	ROW4(X4, avec, dptr, 0, X6, X7)  \
	ROW4(X5, avec, dptr, 16, X8, X9) \
	ADDQ     $8, AX           \
	JMP      vec8             \
vec4:                         \
	TESTQ    $4, CX           \
	JZ       tail             \
	MOVUPS   (SI)(AX*4), X4   \
	ROW4(X4, avec, dptr, 0, X6, X7) \
	ADDQ     $4, AX           \
tail:                         \
	CMPQ     AX, CX           \
	JGE      end              \
	MOVSS    (SI)(AX*4), X4   \
	ROW1(X4, avec, dptr, X6)  \
	INCQ     AX               \
	JMP      tail             \
end:

// VROW is ROW4 in VEX form: on Y registers it does eight elements, on X
// registers four. The product's first source is b and the sum's is the
// product, the roles MULPS and ADDPS have above.
#define VROW(bvec, avec, dptr, off, t) \
	VMULPS  avec, bvec, t          \
	VADDPS  off(dptr)(AX*4), t, t  \
	VMOVUPS t, off(dptr)(AX*4)

// VROW1 is the scalar form of VROW for the tail.
#define VROW1(bvec, avec, dptr, t) \
	VMULSS avec, bvec, t          \
	VADDSS (dptr)(AX*4), t, t     \
	VMOVSS t, (dptr)(AX*4)

// VROWRUN is ROWRUN on eight lanes: sixteen elements per iteration, then
// one eight-lane step, one four-lane step and a scalar tail. ya and xa are
// the same register, holding the coefficient in every lane, by its Y and X
// names.
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

// func axpy1(d, b []float32, a float32)
TEXT ·axpy1(SB), NOSPLIT, $0-52
	MOVQ d_base+0(FP), R8
	MOVQ b_base+24(FP), SI
	MOVQ b_len+32(FP), CX
	CMPB ·useAVX(SB), $0
	JNE  avx

	MOVSS  a+48(FP), X0
	SHUFPS $0, X0, X0
	PXOR   X14, X14 // an empty zero mask
	ROWRUN(1, X0, R8, loop8, loop4, tail, done)
	RET

avx:
	VBROADCASTSS a+48(FP), Y0
	VPXOR        X14, X14, X14 // an empty zero mask
	VROWRUN(1, Y0, X0, R8, vloop16, vloop8, vloop4, vtail, vdone)
	VZEROUPPER
	RET

// func axpy4Rows(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32, k, cstride int, skip bool)
//
// Four destination rows share every load of b: for p in 0..k,
// d_r[j] += c_r[p*cstride]*b[p*stride+j] for j in 0..len(d0). The terms
// reach each element one at a time, in ascending p. With skip set, a term
// whose four coefficients are all non-zero still takes the four-row pass; a
// term holding an exact zero (of either sign) runs a single-row pass for
// each of its non-zero rows and leaves its zero rows alone.
TEXT ·axpy4Rows(SB), NOSPLIT, $0-241
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
	CMPB ·useAVX(SB), $0
	JNE  avxterm

term:
	TESTQ  DI, DI
	JLE    done
	MOVSS  (R12), X0
	MOVSS  (R13), X1
	MOVSS  (R14), X2
	MOVSS  (R15), X3
	SHUFPS $0, X0, X0
	SHUFPS $0, X1, X1
	SHUFPS $0, X2, X2
	SHUFPS $0, X3, X3
	CMPB   skip+240(FP), $0
	JEQ    full

	// X14 lane r is all ones iff c_r is ±0 (its bits shifted left by one are
	// zero); MOVMSKPS gathers the lanes' sign bits into the zero mask.
	MOVAPS   X0, X14
	UNPCKLPS X1, X14
	MOVAPS   X2, X15
	UNPCKLPS X3, X15
	MOVLHPS  X15, X14
	PSLLL    $1, X14
	PXOR     X15, X15
	PCMPEQL  X15, X14
	MOVMSKPS X14, DX
	TESTQ    DX, DX
	JZ       full
	ROWRUN(1, X0, R8, vec8r0, vec4r0, tail0, end0)
	ROWRUN(2, X1, R9, vec8r1, vec4r1, tail1, end1)
	ROWRUN(4, X2, R10, vec8r2, vec4r2, tail2, end2)
	ROWRUN(8, X3, R11, vec8r3, vec4r3, tail3, end3)
	JMP    next

full:
	MOVQ   CX, DX
	ANDQ   $-8, DX
	XORQ   AX, AX

loop8:
	CMPQ   AX, DX
	JGE    loop4
	MOVUPS (SI)(AX*4), X4
	MOVUPS 16(SI)(AX*4), X5
	ROW4(X4, X0, R8, 0, X6, X7)
	ROW4(X5, X0, R8, 16, X8, X9)
	ROW4(X4, X1, R9, 0, X10, X11)
	ROW4(X5, X1, R9, 16, X12, X13)
	ROW4(X4, X2, R10, 0, X6, X7)
	ROW4(X5, X2, R10, 16, X8, X9)
	ROW4(X4, X3, R11, 0, X10, X11)
	ROW4(X5, X3, R11, 16, X12, X13)
	ADDQ   $8, AX
	JMP    loop8

loop4:
	// AX is len(d0) with its low three bits cleared: bit 2 says whether one
	// more whole vector is left.
	TESTQ  $4, CX
	JZ     tail
	MOVUPS (SI)(AX*4), X4
	ROW4(X4, X0, R8, 0, X6, X7)
	ROW4(X4, X1, R9, 0, X8, X9)
	ROW4(X4, X2, R10, 0, X10, X11)
	ROW4(X4, X3, R11, 0, X12, X13)
	ADDQ   $4, AX

tail:
	CMPQ   AX, CX
	JGE    next
	MOVSS  (SI)(AX*4), X4
	ROW1(X4, X0, R8, X6)
	ROW1(X4, X1, R9, X8)
	ROW1(X4, X2, R10, X10)
	ROW1(X4, X3, R11, X12)
	INCQ   AX
	JMP    tail

next:
	ADDQ   BX, SI
	MOVQ   cstride+232(FP), DX
	SHLQ   $2, DX
	ADDQ   DX, R12
	ADDQ   DX, R13
	ADDQ   DX, R14
	ADDQ   DX, R15
	DECQ   DI
	JMP    term

done:
	RET

avxterm:
	TESTQ        DI, DI
	JLE          avxdone
	VBROADCASTSS (R12), Y0
	VBROADCASTSS (R13), Y1
	VBROADCASTSS (R14), Y2
	VBROADCASTSS (R15), Y3
	CMPB         skip+240(FP), $0
	JEQ          avxfull

	// The zero mask, as above, from the low lanes of the broadcasts.
	VUNPCKLPS X1, X0, X14
	VUNPCKLPS X3, X2, X15
	VMOVLHPS  X15, X14, X14
	VPSLLD    $1, X14, X14
	VPXOR     X15, X15, X15
	VPCMPEQD  X15, X14, X14
	VMOVMSKPS X14, DX
	TESTQ     DX, DX
	JZ        avxfull
	VROWRUN(1, Y0, X0, R8, v16r0, v8r0, v4r0, vtail0, vend0)
	VROWRUN(2, Y1, X1, R9, v16r1, v8r1, v4r1, vtail1, vend1)
	VROWRUN(4, Y2, X2, R10, v16r2, v8r2, v4r2, vtail2, vend2)
	VROWRUN(8, Y3, X3, R11, v16r3, v8r3, v4r3, vtail3, vend3)
	JMP       avxnext

avxfull:
	MOVQ CX, DX
	ANDQ $-16, DX
	XORQ AX, AX

avxloop16:
	CMPQ    AX, DX
	JGE     avxloop8
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
	JMP     avxloop16

avxloop8:
	// AX is len(d0) with its low four bits cleared: bit 3 says whether an
	// eight-lane vector is left, bit 2 a four-lane one.
	TESTQ   $8, CX
	JZ      avxloop4
	VMOVUPS (SI)(AX*4), Y4
	VROW(Y4, Y0, R8, 0, Y6)
	VROW(Y4, Y1, R9, 0, Y7)
	VROW(Y4, Y2, R10, 0, Y8)
	VROW(Y4, Y3, R11, 0, Y9)
	ADDQ    $8, AX

avxloop4:
	TESTQ   $4, CX
	JZ      avxtail
	VMOVUPS (SI)(AX*4), X4
	VROW(X4, X0, R8, 0, X6)
	VROW(X4, X1, R9, 0, X7)
	VROW(X4, X2, R10, 0, X8)
	VROW(X4, X3, R11, 0, X9)
	ADDQ    $4, AX

avxtail:
	CMPQ   AX, CX
	JGE    avxnext
	VMOVSS (SI)(AX*4), X4
	VROW1(X4, X0, R8, X6)
	VROW1(X4, X1, R9, X7)
	VROW1(X4, X2, R10, X8)
	VROW1(X4, X3, R11, X9)
	INCQ   AX
	JMP    avxtail

avxnext:
	ADDQ BX, SI
	MOVQ cstride+232(FP), DX
	SHLQ $2, DX
	ADDQ DX, R12
	ADDQ DX, R13
	ADDQ DX, R14
	ADDQ DX, R15
	DECQ DI
	JMP  avxterm

avxdone:
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
