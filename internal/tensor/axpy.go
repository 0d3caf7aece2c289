package tensor

// This file is the package's one vector primitive: d[j] = d[j] + a*b[j]
// over one destination row (Axpy), four rows sharing the same b (Axpy4Skip),
// or four rows through a run of terms (Axpy4Rows). The matmul kernels in
// blocked.go, nn.Linear's gradient accumulation and the dot-interaction are
// all expressed on it. On amd64 the bodies are the SSE2 loops in
// axpy_amd64.s; everywhere else they are the *Go functions at the bottom of
// this file, which are also the oracle the assembly is tested against. The
// assembly rounds the product and the sum separately, as the compiler's code
// for the Go loops does on amd64, so on every architecture the primitive
// computes, bit for bit, what the scalar loop there computes.

// Axpy computes y += alpha*x elementwise for equal-length slices that do
// not overlap.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	axpy1(y, x, alpha)
}

// Axpy4Skip is four Axpys over one x, y_r += a_r*x for r in 0..3, that leaves
// alone every row whose coefficient is exactly zero (of either sign): the
// skip the naive matmul loops make, which shows when x holds an Inf or NaN.
// With no zero among them the four rows share one pass over x. Every y_r
// must have x's length and overlap neither x nor another y.
func Axpy4Skip(a0, a1, a2, a3 float32, x, y0, y1, y2, y3 []float32) {
	if n := len(x); len(y0) != n || len(y1) != n || len(y2) != n || len(y3) != n {
		panic("tensor: Axpy4Skip length mismatch")
	}
	if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
		axpy4(y0, y1, y2, y3, x, a0, a1, a2, a3)
		return
	}
	if a0 != 0 {
		axpy1(y0, x, a0)
	}
	if a1 != 0 {
		axpy1(y1, x, a1)
	}
	if a2 != 0 {
		axpy1(y2, x, a2)
	}
	if a3 != 0 {
		axpy1(y3, x, a3)
	}
}

// axpy4 is one term of the four-row body; the caller has checked that every
// d_r has b's length.
func axpy4(d0, d1, d2, d3, b []float32, a0, a1, a2, a3 float32) {
	c := [4]float32{a0, a1, a2, a3}
	axpy4Rows(d0, d1, d2, d3, b, 0, c[0:1], c[1:2], c[2:3], c[3:4])
}

// Axpy4Rows is a run of four-row terms in one call: for ascending p,
// y_r += c_r[p]*x[p*stride:][:len(y0)]. It is a whole four-row tile of a
// product whose terms are never skipped; keeping the loop over p inside the
// primitive matters when the rows are short, where a call per term costs as
// much as the term. The y_r share a length, the c_r share a length, and x
// holds every row read.
func Axpy4Rows(c0, c1, c2, c3, x []float32, stride int, y0, y1, y2, y3 []float32) {
	n, k := len(y0), len(c0)
	if len(y1) != n || len(y2) != n || len(y3) != n || len(c1) != k || len(c2) != k || len(c3) != k {
		panic("tensor: Axpy4Rows length mismatch")
	}
	if k == 0 {
		return
	}
	if stride < 0 || len(x) < (k-1)*stride+n {
		panic("tensor: Axpy4Rows source shorter than its rows")
	}
	axpy4Rows(y0, y1, y2, y3, x, stride, c0, c1, c2, c3)
}

// axpy1Go is the portable body of Axpy.
func axpy1Go(d, b []float32, a float32) {
	d = d[:len(b)]
	for j, bv := range b {
		d[j] += a * bv
	}
}

// axpy4RowsGo is the portable body of Axpy4Rows (and, with one term, axpy4).
func axpy4RowsGo(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32) {
	n := len(d0)
	d1, d2, d3 = d1[:n], d2[:n], d3[:n]
	for p, a0 := range c0 {
		a1, a2, a3 := c1[p], c2[p], c3[p]
		for j, bv := range b[p*stride : p*stride+n] {
			d0[j] += a0 * bv
			d1[j] += a1 * bv
			d2[j] += a2 * bv
			d3[j] += a3 * bv
		}
	}
}
