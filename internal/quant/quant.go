package quant

import (
	"fmt"
	"math"
)

// Quantizer performs error-bounded linear quantization.
type Quantizer struct {
	// ErrorBound is the maximum tolerated absolute reconstruction error.
	ErrorBound float32
}

// New returns a Quantizer with the given absolute error bound.
func New(eb float32) Quantizer {
	if eb <= 0 {
		panic(fmt.Sprintf("quant: error bound must be positive, got %v", eb))
	}
	return Quantizer{ErrorBound: eb}
}

// Quantize writes the bin code of every src element into dst
// (len(dst) == len(src)).
func (q Quantizer) Quantize(dst []int32, src []float32) {
	if len(dst) != len(src) {
		panic("quant: Quantize length mismatch")
	}
	quantize(dst, nil, src, 2*float64(q.ErrorBound))
}

const (
	signBit = 1 << 63
	// halfPred is the largest float64 below 0.5. Adding it (not 0.5) with x's
	// sign and truncating rounds half away from zero exactly: k+0.5+halfPred
	// rounds up to k+1 under round-to-even, while pred(k+0.5)+halfPred stays
	// below k+1, so no |x| < 2⁵² is misplaced — including pred(0.5), which
	// x+0.5 would carry to 1.
	halfPred = 0x3FDFFFFFFFFFFFFF
	// roundLimit is 2³¹−1 as float64 bits: below it the biased sum truncates
	// to a value int32 holds. Non-negative floats order like their bits, so
	// one integer compare also sends NaN and ±Inf to the fallback.
	roundLimit = 0x41DFFFFFFFC00000
)

// roundCode returns int32(math.Round(x)) without math.Round's software bit
// surgery and the branch inside it; ok is false for magnitudes of 2³¹−1 and
// up, NaN and ±Inf, which the caller hands to roundWide so that whatever the
// platform's out-of-range conversion yields for them is unchanged. (Two
// functions because one holding the math.Round call is over the inlining
// budget, and the quantize loops need this inlined.)
func roundCode(x float64) (c int32, ok bool) {
	b := math.Float64bits(x)
	return int32(x + math.Float64frombits(halfPred|b&signBit)), b&^signBit < roundLimit
}

func roundWide(x float64) int32 { return int32(math.Round(x)) }

// QuantizeZigZag fuses Quantize and ZigZagInto into one pass over src:
// codes[i] gets the bin code, syms[i] its zigzag symbol, and the returned
// value is the maximum symbol (0 for empty input). The outputs are exactly
// what the two separate passes produce; fusing only saves the second
// traversal and hands the caller the alphabet bound for free.
func (q Quantizer) QuantizeZigZag(codes []int32, syms []uint32, src []float32) (maxSym uint32) {
	if len(codes) != len(src) || len(syms) != len(src) {
		panic("quant: QuantizeZigZag length mismatch")
	}
	return quantize(codes, syms, src, 2*float64(q.ErrorBound))
}

// Dequantize reconstructs values from bin codes.
func (q Quantizer) Dequantize(dst []float32, codes []int32) {
	if len(dst) != len(codes) {
		panic("quant: Dequantize length mismatch")
	}
	dequantize(dst, codes, 2*float64(q.ErrorBound))
}

// DequantizeZigZag fuses UnZigZag and Dequantize into one pass: dst[i]
// gets the value symbol syms[i] stands for, exactly what un-zigzagging
// every symbol and then dequantizing the codes produces, without the
// intermediate codes.
func (q Quantizer) DequantizeZigZag(dst []float32, syms []uint32) {
	if len(dst) != len(syms) {
		panic("quant: DequantizeZigZag length mismatch")
	}
	dequantizeZigZag(dst, syms, 2*float64(q.ErrorBound))
}

// quantizeGo is the scalar body of Quantize (syms nil) and QuantizeZigZag,
// and the oracle the assembly bodies are tested against.
func quantizeGo(codes []int32, syms []uint32, src []float32, step float64) (maxSym uint32) {
	if syms == nil {
		for i, v := range src {
			x := float64(v) / step
			c, ok := roundCode(x)
			if !ok {
				c = roundWide(x)
			}
			codes[i] = c
		}
		return 0
	}
	for i, v := range src {
		x := float64(v) / step
		c, ok := roundCode(x)
		if !ok {
			c = roundWide(x)
		}
		codes[i] = c
		s := uint32((c << 1) ^ (c >> 31))
		syms[i] = s
		if s > maxSym {
			maxSym = s
		}
	}
	return maxSym
}

// dequantizeGo is the scalar body of Dequantize and its oracle.
func dequantizeGo(dst []float32, codes []int32, step float64) {
	for i, c := range codes {
		dst[i] = float32(float64(c) * step)
	}
}

// dequantizeZigZagGo is the scalar body of DequantizeZigZag and its oracle.
func dequantizeZigZagGo(dst []float32, syms []uint32, step float64) {
	for i, s := range syms {
		dst[i] = float32(float64(UnZigZag(s)) * step)
	}
}

// ZigZag maps a signed code to an unsigned symbol: 0,-1,1,-2,2 → 0,1,2,3,4.
// Small-magnitude codes (the common case for embedding data) get small
// symbols, which keeps entropy tables compact.
func ZigZag(v int32) uint32 {
	return uint32((v << 1) ^ (v >> 31))
}

// UnZigZag inverts ZigZag.
func UnZigZag(u uint32) int32 {
	return int32(u>>1) ^ -int32(u&1)
}

// ZigZagSlice maps codes to symbols in place semantics via a new slice.
func ZigZagSlice(codes []int32) []uint32 {
	out := make([]uint32, len(codes))
	ZigZagInto(out, codes)
	return out
}

// ZigZagInto writes ZigZag(codes[i]) into dst[i] without allocating; dst and
// codes must have equal length. This is the in-place-style variant the
// buffered codec hot path uses (dst is a reusable workspace buffer).
func ZigZagInto(dst []uint32, codes []int32) {
	if len(dst) != len(codes) {
		panic("quant: ZigZagInto length mismatch")
	}
	for i, c := range codes {
		dst[i] = ZigZag(c)
	}
}

// UnZigZagSlice inverts ZigZagSlice.
func UnZigZagSlice(syms []uint32) []int32 {
	out := make([]int32, len(syms))
	for i, s := range syms {
		out[i] = UnZigZag(s)
	}
	return out
}
