package tensor

// This file is the package's one vector primitive: d[j] = d[j] + a*b[j]
// over one destination row (Axpy) or four rows through a run of terms that
// share each load of b, either adding every term (Axpy4Rows) or leaving
// alone the rows of a term whose coefficient is zero (Axpy4Skip). The matmul
// kernels in blocked.go, nn.Linear's gradient accumulation and the
// dot-interaction are all expressed on it. Each function has one assembly
// body, the eight-lane AVX loops in axpy_amd64.s, which amd64 hosts with AVX
// run; every other host runs the *Go functions at the bottom of this file,
// which are also the oracle the assembly is tested against. The assembly
// rounds the product and the sum separately, as the compiler's code for the
// Go loops does on amd64, so on every architecture and with either body the
// primitive computes, bit for bit, what the scalar loop there computes.

// Axpy computes y += alpha*x elementwise for equal-length slices that do
// not overlap.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	axpy1(y, x, alpha)
}

// Axpy4Rows is a run of four-row terms in one call: for ascending p,
// y_r += c_r[p]*x[p*stride:][:len(y0)]. It is a whole four-row tile of a
// product whose terms are never skipped; keeping the loop over p inside the
// primitive matters when the rows are short, where a call per term costs as
// much as the term. The y_r share a length, the c_r share a length, x
// holds every row read, and no y_r overlaps x or another y.
func Axpy4Rows(c0, c1, c2, c3, x []float32, stride int, y0, y1, y2, y3 []float32) {
	checkAxpy4(c0, c1, c2, c3, x, stride, y0, y1, y2, y3)
	axpy4Rows(y0, y1, y2, y3, x, stride, c0, c1, c2, c3, len(c0), 1, false)
}

// Axpy4Skip is Axpy4Rows that, term by term, leaves alone every row whose
// coefficient is exactly zero (of either sign): the skip the naive loops
// make, which shows when x holds an Inf or NaN or a row holds -0. A term
// with no zero among its four coefficients still takes one four-row pass.
func Axpy4Skip(c0, c1, c2, c3, x []float32, stride int, y0, y1, y2, y3 []float32) {
	checkAxpy4(c0, c1, c2, c3, x, stride, y0, y1, y2, y3)
	axpy4Rows(y0, y1, y2, y3, x, stride, c0, c1, c2, c3, len(c0), 1, true)
}

// checkAxpy4 panics, before anything is written, unless the four-row
// operands fit together.
func checkAxpy4(c0, c1, c2, c3, x []float32, stride int, y0, y1, y2, y3 []float32) {
	n, k := len(y0), len(c0)
	if len(y1) != n || len(y2) != n || len(y3) != n || len(c1) != k || len(c2) != k || len(c3) != k {
		panic("tensor: Axpy4 length mismatch")
	}
	if k > 0 && (stride < 0 || len(x) < (k-1)*stride+n) {
		panic("tensor: Axpy4 source shorter than its rows")
	}
}

// axpy1Go is the portable body of Axpy.
func axpy1Go(d, b []float32, a float32) {
	d = d[:len(b)]
	for j, bv := range b {
		d[j] += a * bv
	}
}

// axpy4RowsGo is the portable body of Axpy4Rows (skip unset) and Axpy4Skip
// (skip set), for k terms whose coefficients lie cstride apart: term p
// scales row r by c_r[p*cstride].
func axpy4RowsGo(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32, k, cstride int, skip bool) {
	n := len(d0)
	d1, d2, d3 = d1[:n], d2[:n], d3[:n]
	for p := 0; p < k; p++ {
		a0, a1, a2, a3 := c0[p*cstride], c1[p*cstride], c2[p*cstride], c3[p*cstride]
		x := b[p*stride : p*stride+n]
		if skip && (a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0) {
			c := [4]float32{a0, a1, a2, a3}
			for r, d := range [4][]float32{d0, d1, d2, d3} {
				if c[r] != 0 {
					axpy1Go(d, x, c[r])
				}
			}
			continue
		}
		for j, bv := range x {
			d0[j] += a0 * bv
			d1[j] += a1 * bv
			d2[j] += a2 * bv
			d3[j] += a3 * bv
		}
	}
}
