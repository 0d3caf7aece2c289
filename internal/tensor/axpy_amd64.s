// The AVX bodies of the package's one vector primitive (see axpy.go) on
// amd64, eight lanes wide: the single- and four-row passes, the 4×16
// register-held tile, and the moves that lay operands out for it (the
// panel pack, the row gather, the four-row transposition and the packed
// lower triangle to and from a matrix). The Go wrappers in axpy_amd64.go
// call them where useAVX is set (once, at package init, from HasAVX) and
// run the *Go loops of axpy.go everywhere else. Lanes run across different
// elements j; each element is computed as d[j] + a*b[j] with one multiply
// and one add (VMULPS then VADDPS; never a fused multiply-add), with the
// operand roles the compiler's scalar code has (product = b*a, then
// product + d), so every element is bit-for-bit what axpy1Go /
// axpy4RowsGo produce; the moves only move bits. No body runs a
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

// VTILE does acc[0:8] += a*b[0:8] on a register-held accumulator, with
// VROW's operand roles: the product's first source is b, the sum's is the
// product.
#define VTILE(bvec, avec, t, acc) \
	VMULPS avec, bvec, t       \
	VADDPS acc, t, acc

// func axpy4TileAVX(d *[4][]float32, b []float32, stride int, c *[4][]float32, k, cstride int, zero bool)
//
// The rows' columns in 4×16 output tiles, len(d[0])/16 of them, and a 4×8
// half tile after them where len(d[0]) mod 16 is at least 8, each held
// in Y8–Y15 across the whole term loop: for p in 0..k,
// d[r][j] += c[r][p*cstride]*b[p*stride+j] for the tile's sixteen j, each
// element fed its terms one at a time in ascending p, so a tile ends bit
// for bit where axpy4RowsAVX without skip ends, having loaded and stored
// each element once instead of once per term. With zero set the sums start
// at +0 instead of at the rows' contents, which are then never read. Y0–Y3
// hold the four coefficients of a term, Y4–Y5 its sixteen b elements, Y6–Y7
// products. R8–R11 walk the rows tile by tile up to CX, the end of d[0]'s
// last whole tile; each tile restarts b at its own column and the terms at
// p = 0. The operands come as two arrays of four slice headers, 24 bytes
// apart, so that a call passes nine words instead of thirty-one.
TEXT ·axpy4TileAVX(SB), NOSPLIT, $0-65
	MOVQ d+0(FP), AX
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ 8(AX), CX
	ANDQ $-16, CX
	LEAQ (R8)(CX*4), CX
	MOVQ c+40(FP), AX
	MOVQ 0(AX), R12
	MOVQ 24(AX), R13
	MOVQ 48(AX), R14
	MOVQ 72(AX), R15
	MOVQ stride+32(FP), BX
	SHLQ $2, BX
	MOVQ cstride+56(FP), DX
	SHLQ $2, DX

ttile:
	CMPQ    R8, CX
	JGE     tdone
	MOVQ    d+0(FP), SI
	MOVQ    0(SI), SI
	NEGQ    SI
	ADDQ    R8, SI
	ADDQ    b_base+8(FP), SI // b at the tile's first column
	MOVQ    k+48(FP), DI
	XORQ    AX, AX           // the term's coefficient offset, in bytes
	CMPB    zero+64(FP), $0
	JNE     tzero
	VMOVUPS (R8), Y8
	VMOVUPS 32(R8), Y9
	VMOVUPS (R9), Y10
	VMOVUPS 32(R9), Y11
	VMOVUPS (R10), Y12
	VMOVUPS 32(R10), Y13
	VMOVUPS (R11), Y14
	VMOVUPS 32(R11), Y15
	JMP     tsums

tzero:
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15

tsums:
	TESTQ DI, DI
	JLE   tstore

tterm:
	VMOVUPS      (SI), Y4
	VMOVUPS      32(SI), Y5
	VBROADCASTSS (R12)(AX*1), Y0
	VBROADCASTSS (R13)(AX*1), Y1
	VBROADCASTSS (R14)(AX*1), Y2
	VBROADCASTSS (R15)(AX*1), Y3
	VTILE(Y4, Y0, Y6, Y8)
	VTILE(Y5, Y0, Y7, Y9)
	VTILE(Y4, Y1, Y6, Y10)
	VTILE(Y5, Y1, Y7, Y11)
	VTILE(Y4, Y2, Y6, Y12)
	VTILE(Y5, Y2, Y7, Y13)
	VTILE(Y4, Y3, Y6, Y14)
	VTILE(Y5, Y3, Y7, Y15)
	ADDQ         BX, SI
	ADDQ         DX, AX
	DECQ         DI
	JNZ          tterm

tstore:
	VMOVUPS Y8, (R8)
	VMOVUPS Y9, 32(R8)
	VMOVUPS Y10, (R9)
	VMOVUPS Y11, 32(R9)
	VMOVUPS Y12, (R10)
	VMOVUPS Y13, 32(R10)
	VMOVUPS Y14, (R11)
	VMOVUPS Y15, 32(R11)
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, R11
	JMP     ttile

tdone:
	// An eight-column half tile after the whole tiles, if the rows have
	// one: the same term loop on Y8, Y10, Y12 and Y14 with one vector of b.
	MOVQ    d+0(FP), SI
	MOVQ    8(SI), AX
	TESTQ   $8, AX
	JZ      thdone
	MOVQ    0(SI), SI
	NEGQ    SI
	ADDQ    R8, SI
	ADDQ    b_base+8(FP), SI
	MOVQ    k+48(FP), DI
	XORQ    AX, AX
	CMPB    zero+64(FP), $0
	JNE     thzero
	VMOVUPS (R8), Y8
	VMOVUPS (R9), Y10
	VMOVUPS (R10), Y12
	VMOVUPS (R11), Y14
	JMP     thsums

thzero:
	VXORPS Y8, Y8, Y8
	VXORPS Y10, Y10, Y10
	VXORPS Y12, Y12, Y12
	VXORPS Y14, Y14, Y14

thsums:
	TESTQ DI, DI
	JLE   thstore

thterm:
	VMOVUPS      (SI), Y4
	VBROADCASTSS (R12)(AX*1), Y0
	VBROADCASTSS (R13)(AX*1), Y1
	VBROADCASTSS (R14)(AX*1), Y2
	VBROADCASTSS (R15)(AX*1), Y3
	VTILE(Y4, Y0, Y6, Y8)
	VTILE(Y4, Y1, Y7, Y10)
	VTILE(Y4, Y2, Y6, Y12)
	VTILE(Y4, Y3, Y7, Y14)
	ADDQ         BX, SI
	ADDQ         DX, AX
	DECQ         DI
	JNZ          thterm

thstore:
	VMOVUPS Y8, (R8)
	VMOVUPS Y10, (R9)
	VMOVUPS Y12, (R10)
	VMOVUPS Y14, (R11)

thdone:
	VZEROUPPER
	RET

// func packPanelsAVX(dst, b []float32, k, n int) bool
//
// Copies the k×n row-major b into dst as column panels sixteen wide, the
// one of column j (a multiple of 16) at j*k with its rows 16 apart, the
// last one padded with zeros, and reports whether every value of b is
// finite. The check rides on the copy: v-v is +0 for every finite v and a
// NaN for ±Inf and NaN, and the ORed bits of all of them (Y7 for the
// vectors, X6 for the tail) are zero only if each one was.
TEXT ·packPanelsAVX(SB), NOSPLIT, $0-65
	MOVQ   dst_base+0(FP), DI
	MOVQ   b_base+24(FP), SI
	MOVQ   k+48(FP), CX
	MOVQ   n+56(FP), DX
	MOVQ   CX, R8
	SHLQ   $6, R8   // bytes from one panel to the next: 16*k*4
	MOVQ   DX, R9
	ANDQ   $-16, R9 // the columns in full panels
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  CX, CX
	JLE    pdone

prow:
	XORQ AX, AX  // the column in b
	MOVQ DI, R12 // the row's place in the current panel

pvec:
	CMPQ    AX, R9
	JGE     ptail
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS 32(SI)(AX*4), Y1
	VMOVUPS Y0, (R12)
	VMOVUPS Y1, 32(R12)
	VSUBPS  Y0, Y0, Y2
	VSUBPS  Y1, Y1, Y3
	VORPS   Y2, Y7, Y7
	VORPS   Y3, Y7, Y7
	ADDQ    $16, AX
	ADDQ    R8, R12
	JMP     pvec

ptail:
	CMPQ    AX, DX
	JGE     pnext
	VMOVUPS Y5, (R12) // the padding, then the tail's columns over it
	VMOVUPS Y5, 32(R12)

ptcol:
	VMOVSS (SI)(AX*4), X0
	VMOVSS X0, (R12)
	VSUBSS X0, X0, X2
	VORPS  X2, X6, X6
	ADDQ   $4, R12
	INCQ   AX
	CMPQ   AX, DX
	JLT    ptcol

pnext:
	LEAQ (SI)(DX*4), SI
	ADDQ $64, DI
	DECQ CX
	JNZ  prow

pdone:
	VORPS  Y6, Y7, Y7
	VPTEST Y7, Y7
	SETEQ  ret+64(FP)
	VZEROUPPER
	RET

// func gatherRowsAVX(dst []float32, src [][]float32, off, n int) bool
//
// Copies src[b][off:off+n] to dst[b*n:(b+1)*n] for every row b of src and
// reports whether every value copied is finite, with packPanelsAVX's check
// riding on the copy: v-v is +0 for every finite v and a NaN for ±Inf and
// NaN, and the ORed bits of all of them (Y6 and Y7) are zero only if each
// one was. R8 walks src's slice headers, 24 bytes apart.
TEXT ·gatherRowsAVX(SB), NOSPLIT, $0-65
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), R8
	MOVQ   src_len+32(FP), R9
	MOVQ   off+48(FP), R10
	SHLQ   $2, R10
	MOVQ   n+56(FP), CX
	MOVQ   CX, DX
	ANDQ   $-16, DX
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  R9, R9
	JLE    gdone

grow:
	MOVQ (R8), SI
	ADDQ R10, SI
	XORQ AX, AX

gvec:
	CMPQ    AX, DX
	JGE     gtail
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS 32(SI)(AX*4), Y1
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VSUBPS  Y0, Y0, Y2
	VSUBPS  Y1, Y1, Y3
	VORPS   Y2, Y6, Y6
	VORPS   Y3, Y7, Y7
	ADDQ    $16, AX
	JMP     gvec

gtail:
	CMPQ   AX, CX
	JGE    gnext
	VMOVSS (SI)(AX*4), X0
	VMOVSS X0, (DI)(AX*4)
	VSUBSS X0, X0, X2
	VORPS  Y2, Y6, Y6
	INCQ   AX
	JMP    gtail

gnext:
	LEAQ (DI)(CX*4), DI
	ADDQ $24, R8
	DECQ R9
	JNZ  grow

gdone:
	VORPS  Y6, Y7, Y7
	VPTEST Y7, Y7
	SETEQ  ret+64(FP)
	VZEROUPPER
	RET

// T4X4 transposes the 4×4 block whose rows are X0–X3, leaving its columns
// in X0–X3: the low and the high interleaves of rows 0 and 1 and of rows 2
// and 3, then each column from one half of two of those four. X4–X7 are
// scratch.
#define T4X4 \
	VUNPCKLPS X1, X0, X4 \
	VUNPCKHPS X1, X0, X5 \
	VUNPCKLPS X3, X2, X6 \
	VUNPCKHPS X3, X2, X7 \
	VMOVLHPS  X6, X4, X0 \
	VMOVHLPS  X4, X6, X1 \
	VMOVLHPS  X7, X5, X2 \
	VMOVHLPS  X5, X7, X3

// func symmetrizeAVX(dst []float32, stride int, lower []float32, m int)
//
// Fills the off-diagonal of the m×m matrix in dst, rows stride apart, from
// its strict lower triangle packed row by row in lower, in three passes
// that only move values, so every bit is kept:
//   - each row a's a elements are copied to dst[a*stride:], eight at a
//     time and then one at a time;
//   - the rows form groups of four, a0..a0+3 for a0 a multiple of four,
//     and for each whole group the part of dst's lower triangle left of
//     its diagonal block is transposed, one 4×4 block at a time (T4X4),
//     into the upper triangle above that block;
//   - what is left of the upper triangle, the three-element corners above
//     each whole group's diagonal and every column of a last group that is
//     not whole, is moved one element at a time from the lower triangle.
TEXT ·symmetrizeAVX(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ stride+24(FP), BX
	SHLQ $2, BX             // bytes from one row to the next
	MOVQ lower_base+32(FP), SI
	MOVQ m+56(FP), CX
	LEAQ (BX)(BX*2), DX     // three rows

	// The lower rows: R8 is row a of dst, R9 = a.
	MOVQ $1, R9
	LEAQ (DI)(BX*1), R8

slrow:
	CMPQ R9, CX
	JGE  sblocks
	MOVQ R9, R11
	ANDQ $-8, R11           // row a's elements in whole vectors
	XORQ AX, AX

slvec:
	CMPQ    AX, R11
	JGE     sltail
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS Y0, (R8)(AX*4)
	ADDQ    $8, AX
	JMP     slvec

sltail:
	CMPQ   AX, R9
	JGE    slnext
	VMOVSS (SI)(AX*4), X0
	VMOVSS X0, (R8)(AX*4)
	INCQ   AX
	JMP    sltail

slnext:
	LEAQ (SI)(R9*4), SI
	ADDQ BX, R8
	INCQ R9
	JMP  slrow

	// The blocks: R9 = a0, R10 = &dst[a0][0], R11 = &dst[0][a0], R8 = a0
	// in bytes; within a group AX is the block's column p in bytes and
	// R12 = &dst[p][a0].
sblocks:
	MOVQ $4, R9
	LEAQ (DI)(BX*4), R10
	LEAQ 16(DI), R11

sbgroup:
	LEAQ 4(R9), AX
	CMPQ AX, CX
	JGT  scorners
	LEAQ (R10)(BX*1), R13
	LEAQ (R10)(BX*2), R14
	LEAQ (R10)(DX*1), R15
	MOVQ R9, R8
	SHLQ $2, R8
	XORQ AX, AX
	MOVQ R11, R12

sbblock:
	VMOVUPS (R10)(AX*1), X0
	VMOVUPS (R13)(AX*1), X1
	VMOVUPS (R14)(AX*1), X2
	VMOVUPS (R15)(AX*1), X3
	T4X4
	VMOVUPS X0, (R12)
	VMOVUPS X1, (R12)(BX*1)
	VMOVUPS X2, (R12)(BX*2)
	VMOVUPS X3, (R12)(DX*1)
	LEAQ    (R12)(BX*4), R12
	ADDQ    $16, AX
	CMPQ    AX, R8
	JLT     sbblock
	ADDQ    $4, R9
	LEAQ    (R10)(BX*4), R10
	ADDQ    $16, R11
	JMP     sbgroup

	// The corners and the last group: for column a (R9), rows b from R12
	// to a, where R12 is a's group start if that group is whole and 0
	// otherwise. R8 = &dst[a][0], R11 = &dst[0][a].
scorners:
	MOVQ $1, R9
	LEAQ (DI)(BX*1), R8
	LEAQ 4(DI), R11

sccol:
	CMPQ R9, CX
	JGE  sdone
	MOVQ R9, R12
	ANDQ $-4, R12
	LEAQ 4(R12), AX
	CMPQ AX, CX
	JLE  scstart
	XORQ R12, R12

scstart:
	MOVQ R12, AX
	IMULQ BX, AX
	ADDQ R11, AX            // &dst[b][a]

scelem:
	CMPQ   R12, R9
	JGE    scnext
	VMOVSS (R8)(R12*4), X0
	VMOVSS X0, (AX)
	ADDQ   BX, AX
	INCQ   R12
	JMP    scelem

scnext:
	ADDQ BX, R8
	ADDQ $4, R11
	INCQ R9
	JMP  sccol

sdone:
	VZEROUPPER
	RET

// func packLowerAVX(dst, src []float32, stride, m int)
//
// Copies the strict lower triangle of the m×m matrix in src, rows stride
// apart, into dst row by row: dst[a*(a-1)/2+b] = src[a*stride+b] for b < a
// < m. Each row moves eight elements at a time, then one at a time.
TEXT ·packLowerAVX(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ stride+48(FP), BX
	SHLQ $2, BX
	MOVQ m+56(FP), CX
	MOVQ $1, DX             // a, the row's length
	ADDQ BX, SI

prow2:
	CMPQ DX, CX
	JGE  pldone
	MOVQ DX, R8
	ANDQ $-8, R8            // the elements in whole vectors
	XORQ AX, AX

pvec8:
	CMPQ    AX, R8
	JGE     ptail1
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     pvec8

ptail1:
	CMPQ   AX, DX
	JGE    prnext
	VMOVSS (SI)(AX*4), X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    ptail1

prnext:
	LEAQ (DI)(DX*4), DI
	ADDQ BX, SI
	INCQ DX
	JMP  prow2

pldone:
	VZEROUPPER
	RET

// func transpose4AVX(dst []float32, stride int, s0, s1, s2, s3 []float32)
//
// Writes the four rows s_r as four adjacent columns of dst, rows stride
// apart: dst[p*stride+r] = s_r[p] for p in 0..len(s0). Four elements of each
// row are one 4×4 block, transposed in registers (T4X4), so every store
// moves 16 contiguous bytes; the len(s0) mod 4 tail moves one element at a
// time.
TEXT ·transpose4AVX(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ stride+24(FP), BX
	SHLQ $2, BX             // bytes from one destination row to the next
	MOVQ s0_base+32(FP), R8
	MOVQ s0_len+40(FP), CX
	MOVQ s1_base+56(FP), R9
	MOVQ s2_base+80(FP), R10
	MOVQ s3_base+104(FP), R11
	LEAQ (BX)(BX*2), DX     // three destination rows
	MOVQ CX, SI
	ANDQ $-4, SI            // the elements in whole blocks
	XORQ AX, AX

t4block:
	CMPQ      AX, SI
	JGE       t4tail
	VMOVUPS   (R8)(AX*4), X0  // a0 a1 a2 a3
	VMOVUPS   (R9)(AX*4), X1  // b0 b1 b2 b3
	VMOVUPS   (R10)(AX*4), X2 // c0 c1 c2 c3
	VMOVUPS   (R11)(AX*4), X3 // d0 d1 d2 d3
	T4X4
	VMOVUPS   X0, (DI)
	VMOVUPS   X1, (DI)(BX*1)
	VMOVUPS   X2, (DI)(BX*2)
	VMOVUPS   X3, (DI)(DX*1)
	LEAQ      (DI)(BX*4), DI
	ADDQ      $4, AX
	JMP       t4block

t4tail:
	CMPQ   AX, CX
	JGE    t4done
	VMOVSS (R8)(AX*4), X0
	VMOVSS X0, (DI)
	VMOVSS (R9)(AX*4), X1
	VMOVSS X1, 4(DI)
	VMOVSS (R10)(AX*4), X2
	VMOVSS X2, 8(DI)
	VMOVSS (R11)(AX*4), X3
	VMOVSS X3, 12(DI)
	ADDQ   BX, DI
	INCQ   AX
	JMP    t4tail

t4done:
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
