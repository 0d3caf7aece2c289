//go:build amd64

package tensor

// useAVX picks the bodies all the package's vector functions run: the AVX
// loops in axpy_amd64.s where HasAVX holds, the Go loops everywhere else.
// It is set here, once, at package init; the package's tests switch it to
// hold every body the host can execute to the same oracle.
var useAVX = HasAVX()

// Implemented in axpy_amd64.s. All of them trust their caller for the
// lengths; the wrappers in axpy.go and the kernels in blocked.go are the
// only callers of the Go functions below, and check them.

//go:noescape
func axpy1AVX(d, b []float32, a float32)

//go:noescape
func axpy4RowsAVX(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32, k, cstride int, skip bool)

//go:noescape
func axpy4TileAVX(d *[4][]float32, b []float32, stride int, c *[4][]float32, k, cstride int, zero bool)

//go:noescape
func packPanelsAVX(dst, b []float32, k, n int) bool

//go:noescape
func gatherRowsAVX(dst []float32, src [][]float32, off, n int) bool

//go:noescape
func symmetrizeAVX(dst []float32, stride int, lower []float32, m int)

//go:noescape
func packLowerAVX(dst, src []float32, stride, m int)

//go:noescape
func transpose4AVX(dst []float32, stride int, s0, s1, s2, s3 []float32)

func axpy1(d, b []float32, a float32) {
	if useAVX {
		axpy1AVX(d, b, a)
		return
	}
	axpy1Go(d, b, a)
}

func axpy4Rows(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32, k, cstride int, skip bool) {
	if useAVX {
		axpy4RowsAVX(d0, d1, d2, d3, b, stride, c0, c1, c2, c3, k, cstride, skip)
		return
	}
	axpy4RowsGo(d0, d1, d2, d3, b, stride, c0, c1, c2, c3, k, cstride, skip)
}

func axpy4Tile(d *[4][]float32, b []float32, stride int, c *[4][]float32, k, cstride int, zero bool) {
	if useAVX {
		axpy4TileAVX(d, b, stride, c, k, cstride, zero)
		return
	}
	axpy4TileGo(d, b, stride, c, k, cstride, zero)
}

func packPanels(dst, b []float32, k, n int) bool {
	if useAVX {
		return packPanelsAVX(dst, b, k, n)
	}
	return packPanelsGo(dst, b, k, n)
}

func gatherRows(dst []float32, src [][]float32, off, n int) bool {
	if useAVX {
		return gatherRowsAVX(dst, src, off, n)
	}
	return gatherRowsGo(dst, src, off, n)
}

func symmetrize(dst []float32, stride int, lower []float32, m int) {
	if useAVX {
		symmetrizeAVX(dst, stride, lower, m)
		return
	}
	symmetrizeGo(dst, stride, lower, m)
}

func packLower(dst, src []float32, stride, m int) {
	if useAVX {
		packLowerAVX(dst, src, stride, m)
		return
	}
	packLowerGo(dst, src, stride, m)
}

func transpose4(dst []float32, stride int, s0, s1, s2, s3 []float32) {
	if useAVX {
		transpose4AVX(dst, stride, s0, s1, s2, s3)
		return
	}
	transpose4Go(dst, stride, s0, s1, s2, s3)
}

// HasAVX reports whether the CPU executes AVX and the OS saves the YMM
// registers across context switches: CPUID leaf 1 reports OSXSAVE (ECX bit
// 27) and AVX (bit 28), and XCR0 enables both the XMM (bit 1) and the YMM
// (bit 2) state. XGETBV is only read once OSXSAVE says it exists. It is the
// repository's one CPU feature probe: internal/quant selects its AVX
// bodies by it too.
func HasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xgetbv0()&6 == 6
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low half of XCR0.
func xgetbv0() uint32
