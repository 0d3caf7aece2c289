// SSE2 bodies of the package's one vector primitive (see axpy.go). SSE2 is
// the amd64 baseline, so there is no feature detection and no second path.
// Lanes run across different elements j; each element is computed as
// d[j] + a*b[j] with one MULPS and one ADDPS (never a fused multiply-add),
// with the operand roles the compiler's scalar code has (product = b*a, then
// product + d), so every element is bit-for-bit what axpy1Go / axpy4RowsGo
// produce. The callers in axpy.go have checked every length.

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

// func axpy1(d, b []float32, a float32)
TEXT ·axpy1(SB), NOSPLIT, $0-52
	MOVQ   d_base+0(FP), R8
	MOVQ   b_base+24(FP), SI
	MOVQ   b_len+32(FP), CX
	MOVSS  a+48(FP), X0
	SHUFPS $0, X0, X0
	PXOR   X14, X14 // an empty zero mask
	ROWRUN(1, X0, R8, loop8, loop4, tail, done)
	RET

// func axpy4Rows(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32, skip bool)
//
// Four destination rows share every load of b: for p in 0..len(c0),
// d_r[j] += c_r[p]*b[p*stride+j] for j in 0..len(d0). The terms reach each
// element one at a time, in ascending p. With skip set, a term whose four
// coefficients are all non-zero still takes the four-row pass; a term
// holding an exact zero (of either sign) runs a single-row pass for each of
// its non-zero rows and leaves its zero rows alone.
TEXT ·axpy4Rows(SB), NOSPLIT, $0-225
	MOVQ   d0_base+0(FP), R8
	MOVQ   d1_base+24(FP), R9
	MOVQ   d2_base+48(FP), R10
	MOVQ   d3_base+72(FP), R11
	MOVQ   d0_len+8(FP), CX
	MOVQ   b_base+96(FP), SI
	MOVQ   stride+120(FP), BX
	SHLQ   $2, BX
	MOVQ   c0_base+128(FP), R12
	MOVQ   c1_base+152(FP), R13
	MOVQ   c2_base+176(FP), R14
	MOVQ   c3_base+200(FP), R15
	MOVQ   c0_len+136(FP), DI

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
	CMPB   skip+224(FP), $0
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
	ADDQ   $4, R12
	ADDQ   $4, R13
	ADDQ   $4, R14
	ADDQ   $4, R15
	DECQ   DI
	JMP    term

done:
	RET
