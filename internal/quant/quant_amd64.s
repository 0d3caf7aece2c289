// AVX bodies of the quantizer's three loops (quant_amd64.go), taken when
// useAVX is set (once, at package init, from tensor.HasAVX). Each
// lane runs the IEEE operations the Go loop (quant.go) runs on one value,
// in the same order and with the same operands, so every code, symbol and
// value is bit-for-bit what quantizeGo, dequantizeGo and
// dequantizeZigZagGo produce:
//
//	quantize:    float64(v) (VCVTPS2PD), / step (VDIVPD),
//	             + (halfPred | sign(x)) (VADDPD), truncate (VCVTTPD2DQ);
//	             zigzag and the running unsigned max on the codes.
//	dequantize:  [un-zigzag,] float64(c) (VCVTDQ2PD), · step (VMULPD),
//	             float32 (VCVTPD2PS).
//
// Lanes run across four consecutive values: the doubles in a Y register,
// the int32 codes and symbols in an X register. No body runs a legacy-SSE
// instruction and each ends in VZEROUPPER. The wrappers in quant_amd64.go
// have matched every length and finish each tail (and every group quantize
// declines) with the Go loop.

#include "textflag.h"

// Quantize constants, each a float64 bit pattern broadcast to four lanes:
// the sign bit, halfPred (quant.go) and roundLimit, 2³¹−1.
DATA quantSign<>+0(SB)/8, $0x8000000000000000
GLOBL quantSign<>(SB), RODATA|NOPTR, $8
DATA quantHalfPred<>+0(SB)/8, $0x3FDFFFFFFFFFFFFF
GLOBL quantHalfPred<>(SB), RODATA|NOPTR, $8
DATA quantLimit<>+0(SB)/8, $0x41DFFFFFFFC00000
GLOBL quantLimit<>(SB), RODATA|NOPTR, $8

// func quantizeAVX(codes []int32, syms []uint32, src []float32, step float64) (n int, maxSym uint32)
TEXT ·quantizeAVX(SB), NOSPLIT, $0-92
	MOVQ         codes_base+0(FP), DI
	MOVQ         syms_base+24(FP), R8
	MOVQ         syms_len+32(FP), R9
	MOVQ         src_base+48(FP), SI
	MOVQ         src_len+56(FP), CX
	ANDQ         $-4, CX
	VBROADCASTSD step+72(FP), Y8
	VBROADCASTSD quantSign<>(SB), Y9
	VBROADCASTSD quantHalfPred<>(SB), Y10
	VBROADCASTSD quantLimit<>(SB), Y11
	VPXOR        X7, X7, X7
	XORQ         AX, AX

qloop:
	CMPQ        AX, CX
	JGE         qdone
	VCVTPS2PD   (SI)(AX*4), Y0
	VDIVPD      Y8, Y0, Y0          // x = float64(v) / step
	VANDPD      Y9, Y0, Y1          // sign(x)
	VXORPD      Y1, Y0, Y2          // |x|
	VCMPPD      $0x11, Y11, Y2, Y2  // |x| < 2³¹−1, false for NaN (LT_OQ)
	VMOVMSKPD   Y2, DX
	CMPL        DX, $15
	JNE         qdone
	VORPD       Y10, Y1, Y1         // halfPred | sign(x)
	VADDPD      Y1, Y0, Y0          // x + that
	VCVTTPD2DQY Y0, X0              // truncate to int32
	VMOVDQU     X0, (DI)(AX*4)
	TESTQ       R9, R9
	JZ          qnext
	VPSLLD      $1, X0, X1          // (c << 1) ^ (c >> 31)
	VPSRAD      $31, X0, X2
	VPXOR       X2, X1, X1
	VPMAXUD     X1, X7, X7
	VMOVDQU     X1, (R8)(AX*4)

qnext:
	ADDQ $4, AX
	JMP  qloop

qdone:
	VPSHUFD   $0x4E, X7, X1
	VPMAXUD   X1, X7, X7
	VPSHUFD   $0xB1, X7, X1
	VPMAXUD   X1, X7, X7
	VMOVD     X7, DX
	MOVL      DX, maxSym+88(FP)
	MOVQ      AX, n+80(FP)
	VZEROUPPER
	RET

// DEQUANT4 stores float32(float64(c)·step) for the four int32 codes in xc
// at dst[AX+off/4:], step in all four lanes of Y8; yt/xt is a scratch
// register by its Y and X names.
#define DEQUANT4(xc, yt, xt, off) \
	VCVTDQ2PD  xc, yt           \
	VMULPD     Y8, yt, yt       \
	VCVTPD2PSY yt, xt           \
	VMOVUPS    xt, off(DI)(AX*4)

// UNZIGZAG4 turns the four symbols in xs into their codes in place,
// int32(s >> 1) ^ -int32(s & 1); xt is scratch.
#define UNZIGZAG4(xs, xt) \
	VPSRLD $1, xs, xt   \
	VPSLLD $31, xs, xs  \
	VPSRAD $31, xs, xs  \
	VPXOR  xt, xs, xs

// DEQUANTBODY is the loop both dequantize bodies share: eight values per
// iteration in two independent groups, then one group of four, over the
// CX values at DI (dst) and SI (codes or symbols), with step in Y8. unzz is
// UNZIGZAG4 for the fused body and nothing for the plain one.
#define DEQUANTBODY(unzz, loop8, tail4, done) \
	MOVQ         CX, DX              \
	ANDQ         $-8, DX             \
	XORQ         AX, AX              \
loop8:                               \
	CMPQ    AX, DX                   \
	JGE     tail4                    \
	VMOVDQU (SI)(AX*4), X1           \
	VMOVDQU 16(SI)(AX*4), X3         \
	unzz(X1, X2)                     \
	unzz(X3, X4)                     \
	DEQUANT4(X1, Y0, X0, 0)          \
	DEQUANT4(X3, Y5, X5, 16)         \
	ADDQ    $8, AX                   \
	JMP     loop8                    \
tail4:                               \
	TESTQ   $4, CX                   \
	JZ      done                     \
	VMOVDQU (SI)(AX*4), X1           \
	unzz(X1, X2)                     \
	DEQUANT4(X1, Y0, X0, 0)          \
done:                                \
	VZEROUPPER                       \
	RET

#define NOUNZIGZAG(xs, xt)

// func dequantizeAVX(dst []float32, codes []int32, step float64)
TEXT ·dequantizeAVX(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         codes_base+24(FP), SI
	VBROADCASTSD step+48(FP), Y8
	DEQUANTBODY(NOUNZIGZAG, dloop8, dtail4, ddone)

// func dequantizeZigZagAVX(dst []float32, syms []uint32, step float64)
TEXT ·dequantizeZigZagAVX(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         syms_base+24(FP), SI
	VBROADCASTSD step+48(FP), Y8
	DEQUANTBODY(UNZIGZAG4, zloop8, ztail4, zdone)
