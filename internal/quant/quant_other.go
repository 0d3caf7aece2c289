//go:build !amd64

package quant

// Off amd64 the Go loops are the only bodies.

func quantize(codes []int32, syms []uint32, src []float32, step float64) uint32 {
	return quantizeGo(codes, syms, src, step)
}

func dequantize(dst []float32, codes []int32, step float64) { dequantizeGo(dst, codes, step) }

func dequantizeZigZag(dst []float32, syms []uint32, step float64) {
	dequantizeZigZagGo(dst, syms, step)
}
