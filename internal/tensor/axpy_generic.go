//go:build !amd64

package tensor

func axpy1(d, b []float32, a float32) { axpy1Go(d, b, a) }

func axpy4Rows(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32, k, cstride int, skip bool) {
	axpy4RowsGo(d0, d1, d2, d3, b, stride, c0, c1, c2, c3, k, cstride, skip)
}

func axpy4Tile(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32, k, cstride int) {
	axpy4RowsGo(d0, d1, d2, d3, b, stride, c0, c1, c2, c3, k, cstride, false)
}

func packPanels(dst, b []float32, k, n int) bool { return packPanelsGo(dst, b, k, n) }
