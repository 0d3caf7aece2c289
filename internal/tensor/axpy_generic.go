//go:build !amd64

package tensor

func axpy1(d, b []float32, a float32) { axpy1Go(d, b, a) }

func axpy4Rows(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32, k, cstride int, skip bool) {
	axpy4RowsGo(d0, d1, d2, d3, b, stride, c0, c1, c2, c3, k, cstride, skip)
}

func axpy4Tile(d *[4][]float32, b []float32, stride int, c *[4][]float32, k, cstride int, zero bool) {
	axpy4TileGo(d, b, stride, c, k, cstride, zero)
}

func packPanels(dst, b []float32, k, n int) bool { return packPanelsGo(dst, b, k, n) }

func transpose4(dst []float32, stride int, s0, s1, s2, s3 []float32) {
	transpose4Go(dst, stride, s0, s1, s2, s3)
}

func gatherRows(dst []float32, src [][]float32, off, n int) bool {
	return gatherRowsGo(dst, src, off, n)
}

func symmetrize(dst []float32, stride int, lower []float32, m int) {
	symmetrizeGo(dst, stride, lower, m)
}

func packLower(dst, src []float32, stride, m int) { packLowerGo(dst, src, stride, m) }
