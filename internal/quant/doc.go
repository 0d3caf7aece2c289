// Package quant implements the error-bounded uniform quantization encoder
// that is the first stage of the paper's hybrid lossy compressor (§III-D):
// floating-point values are mapped to integer bin codes such that the
// reconstruction error of every element is at most the error bound.
//
//	code_i  = round(v_i / (2·eb))
//	recon_i = code_i · (2·eb)      ⇒ |v_i − recon_i| ≤ eb
//
// Codes are symmetric around zero; ZigZag mapping converts them to unsigned
// symbols for the entropy stage. round is math.Round's half-away-from-zero,
// computed branch-free (truncate x + copysign(halfPred, x), halfPred the
// largest float64 below ½) and pinned to math.Round value for value.
//
// # The bound at a tie
//
// The reconstruction is furthest from v where |v|/step = k+½ exactly
// (step = 2·eb, k ≥ 0 an integer); there it is exactly eb away. For a
// float32 v = (k+½)·step with a float32 eb > 0 (v < 0 is the mirror image):
//
//  1. Write eb = m·2ᵉ with m odd and e ≥ −149, as every float32 can be.
//     Then v = (2k+1)·m·2ᵉ has the odd significand (2k+1)·m, and since v
//     is a float32, (2k+1)·m < 2²⁴.
//  2. step = 2·float64(eb) is exact, and the quotient float64(v)/step is
//     k+½ exactly: 2k+1 < 2²⁴, so k+½ is a float64 and the division does
//     not round. It is below 2³¹−1, so roundCode takes it.
//  3. x + halfPred = k+1 − 2⁻⁵⁴. For k ≥ 1 the float64 spacing just below
//     k+1 is at least 2⁻⁵², so the sum rounds to k+1; for k = 0 the sum
//     lies halfway between 1 − 2⁻⁵³ and 1 and ties to even, to 1.
//     Truncation gives the code k+1, away from zero, as math.Round does.
//  4. float64(k+1)·step = (k+1)·m·2ᵉ⁺¹ has the significand
//     (k+1)·m ≤ (2k+1)·m < 2²⁴, so the product is exact in float64, and so
//     is its float32 conversion unless it passes MaxFloat32. The
//     reconstruction is v + eb, and |v − v̂| = eb.
//
// The one exception is v + eb beyond MaxFloat32, which needs eb ≥ 2¹⁰⁴;
// there v̂ = +Inf. Adding ½ instead of halfPred would also give k+1 at a
// tie; halfPred matters one ulp below ½, where x + ½ ties up to 1. That
// quotient needs v within a relative 2⁻⁵³ of eb, and two float32 values
// are never that close, so the parity tests reach it with float64 steps.
// Off the ties the code is the nearest integer to the rounded quotient,
// and the error stays within eb up to the quotient's and the float32
// reconstruction's roundings (the traced hybrid.max_err_over_eb reads
// 0.99998).
//
// # Non-finite values
//
// A NaN or ±Inf value, like any |v|/step ≥ 2³¹−1, is one roundCode
// declines: it goes to roundWide, int32(math.Round(x)), so its code is
// whatever the platform's float64→int32 conversion yields for it (the Go
// spec leaves that to the implementation; amd64 gives −2³¹). Every body
// hands those values to the same Go code, so the code does not depend on
// the body. The bound does not hold for them: on amd64 each reconstructs
// to −2³¹·step.
//
// # Bodies
//
// Quantize/QuantizeZigZag, Dequantize and DequantizeZigZag each run one of
// two bodies. The Go loops quantizeGo, dequantizeGo and dequantizeZigZagGo
// (quant.go) are the only body off amd64 and on amd64 hosts without AVX,
// and the oracle the other body is tested against. On amd64 with AVX
// (tensor.HasAVX, read once at package init) quant_amd64.s runs the
// same IEEE operations four lanes at a time — VCVTPS2PD, VDIVPD by step,
// the halfPred add, VCVTTPD2DQ; VCVTDQ2PD, VMULPD, VCVTPD2PS — and hands
// every group of four holding a value roundCode declines, and every tail,
// to the Go loop, so each code, symbol and value is bit for bit the Go
// loop's. The parity tests and FuzzQuantize hold every body the host can
// run to the Go loops.
//
// Layer: first stage inside internal/hybrid (and the quantizer the
// homogenization analysis in internal/adapt uses to compute Eq. 1's
// collapse statistics). Pure compute, priced only through the wrapping
// codec's calibrated rates.
//
// Key types: Quantizer (New(eb), Quantize/Dequantize over []int32 codes,
// and the fused QuantizeZigZag and DequantizeZigZag the buffered hybrid
// codec runs over its reusable workspace buffers) and the ZigZag helpers
// shared with the entropy coders.
package quant
