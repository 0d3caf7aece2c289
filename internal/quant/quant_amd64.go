package quant

import "dlrmcomp/internal/tensor"

// useAVX picks the bodies the three loops run: the AVX loops in
// quant_amd64.s where tensor.HasAVX holds, the Go loops everywhere else. It
// is set here, once, at package init; the package's tests switch it to hold
// every body the host can execute to the Go loops.
var useAVX = tensor.HasAVX()

// Implemented in quant_amd64.s. They trust their caller for the lengths;
// the wrappers below are the only callers.

// quantizeAVX is quantizeGo on four values at a time. It stops at the first
// group of four holding a value roundCode declines (|x| ≥ 2³¹−1, NaN, ±Inf),
// or where fewer than four values are left, and returns how many values it
// wrote and the largest symbol among them. An empty syms writes codes only.
//
//go:noescape
func quantizeAVX(codes []int32, syms []uint32, src []float32, step float64) (n int, maxSym uint32)

// dequantizeAVX and dequantizeZigZagAVX are dequantizeGo and
// dequantizeZigZagGo on the first len(dst)&^3 values.
//
//go:noescape
func dequantizeAVX(dst []float32, codes []int32, step float64)

//go:noescape
func dequantizeZigZagAVX(dst []float32, syms []uint32, step float64)

func quantize(codes []int32, syms []uint32, src []float32, step float64) (maxSym uint32) {
	if !useAVX {
		return quantizeGo(codes, syms, src, step)
	}
	for i := 0; i < len(src); {
		n, m := quantizeAVX(codes[i:], span(syms, i, len(src)), src[i:], step)
		// The group at i is one the vector body declined, or the short
		// tail: the Go loop finishes it and the vector body resumes after.
		i += n
		end := min(i+4, len(src))
		maxSym = max(maxSym, m, quantizeGo(codes[i:end], span(syms, i, end), src[i:end], step))
		i = end
	}
	return maxSym
}

// span returns syms[lo:hi], keeping Quantize's nil symbols nil.
func span(syms []uint32, lo, hi int) []uint32 {
	if syms == nil {
		return nil
	}
	return syms[lo:hi]
}

func dequantize(dst []float32, codes []int32, step float64) {
	n := 0
	if useAVX {
		dequantizeAVX(dst, codes, step)
		n = len(dst) &^ 3
	}
	dequantizeGo(dst[n:], codes[n:], step)
}

func dequantizeZigZag(dst []float32, syms []uint32, step float64) {
	n := 0
	if useAVX {
		dequantizeZigZagAVX(dst, syms, step)
		n = len(dst) &^ 3
	}
	dequantizeZigZagGo(dst[n:], syms[n:], step)
}
