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
// computed branch-free (truncate x + copysign(pred(0.5), x)) and pinned to
// math.Round value for value.
//
// Layer: first stage inside internal/hybrid (and the quantizer the
// homogenization analysis in internal/adapt uses to compute Eq. 1's
// collapse statistics). Pure compute, priced only through the wrapping
// codec's calibrated rates.
//
// Key types: Quantizer (New(eb), Quantize/Dequantize over []int32 codes)
// and the ZigZag helpers shared with the entropy coders — including the
// allocation-free ZigZagInto/UnZigZagInto variants the buffered codec
// path feeds from reusable workspace buffers.
package quant
