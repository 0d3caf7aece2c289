//go:build amd64

package tensor

// Implemented in axpy_amd64.s. Both trust their caller for the lengths;
// the wrappers in axpy.go and saxpyRows in blocked.go are the only callers
// and check them.

//go:noescape
func axpy1(d, b []float32, a float32)

//go:noescape
func axpy4Rows(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32, k, cstride int, skip bool)

// useAVX picks the body both functions run: the eight-lane VEX-256 loops
// where HasAVX holds, the four-lane SSE2 loops everywhere else. It is set
// here, once, at package init; the package's tests switch it to hold every
// body the host can execute to the same oracle.
var useAVX = HasAVX()

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
