package tensor

// This file is the package's one vector primitive: d[j] = d[j] + a*b[j]
// over one destination row (Axpy) or four rows through a run of terms that
// share each load of b, either adding every term (Axpy4Rows, and
// MatMul4Rows onto rows that start at +0) or leaving alone the rows of a
// term whose coefficient is zero (Axpy4Skip). Sixteen columns of four rows
// that add every term are a tile (axpy4Tile), whose AVX body keeps the 4×16
// sums in registers across the whole run. The moves that lay operands out
// for the tile are here too: the panel pack the matmul kernels feed it
// (packPanels), the four-row transposition (Transpose4), the row gather
// with its finiteness check (GatherRows), and the packed lower triangle
// to and from a matrix (Symmetrize, PackLower). The matmul kernels in
// blocked.go, nn.Linear's gradient accumulation and the dot-interaction
// are all expressed on these. Each function has one assembly body, the
// eight-lane AVX loops in axpy_amd64.s, which amd64 hosts with AVX run;
// every other host runs the *Go functions at the bottom of this file,
// which are also the oracle the assembly is tested against. The assembly
// rounds the product and the sum separately, as the compiler's code for
// the Go loops does on amd64, and the moves move bits, so on every
// architecture and with either body the primitive computes, bit for bit,
// what the scalar loop there computes.

// nrTile is the column width of a tile: two eight-lane vectors per row.
const nrTile = 16

// Axpy computes y += alpha*x elementwise for equal-length slices that do
// not overlap.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	axpy1(y, x, alpha)
}

// Axpy4Rows is a run of four-row terms in one call: for ascending p,
// y[r] += c[r][p]*x[p*stride:][:len(y[0])]. It is a whole four-row tile of
// a product whose terms are never skipped; keeping the loop over p inside
// the primitive matters when the rows are short, where a call per term
// costs as much as the term. The rows' whole sixteen-column tiles and an
// eight-column half tile after them run register-held, the last len(y[0])
// mod 8 columns as four-row passes. The y[r] share a length, the c[r]
// share a length, x holds every row read, and no y[r] overlaps x or
// another y.
func Axpy4Rows(c *[4][]float32, x []float32, stride int, y *[4][]float32) {
	rows4(c, x, stride, y, false)
}

// MatMul4Rows is Axpy4Rows onto rows that start at +0: it sets
// y[r][j] = sum over ascending p of c[r][p]*x[p*stride+j], four rows of the
// product of the c[r] with the len(c[0]) rows of x, without reading y.
func MatMul4Rows(c *[4][]float32, x []float32, stride int, y *[4][]float32) {
	rows4(c, x, stride, y, true)
}

// Axpy4Skip is Axpy4Rows that, term by term, leaves alone every row whose
// coefficient is exactly zero (of either sign): the skip the naive loops
// make, which shows when x holds an Inf or NaN or a row holds -0. A term
// with no zero among its four coefficients still takes one four-row pass.
func Axpy4Skip(c *[4][]float32, x []float32, stride int, y *[4][]float32) {
	checkAxpy4(c, x, stride, y)
	axpy4Rows(y[0], y[1], y[2], y[3], x, stride, c[0], c[1], c[2], c[3], len(c[0]), 1, true)
}

// rows4 is Axpy4Rows, and with zero set MatMul4Rows: the tiles start their
// sums at +0 instead of loading them, and the rest of the columns are
// cleared before their four-row passes.
func rows4(c *[4][]float32, x []float32, stride int, y *[4][]float32, zero bool) {
	checkAxpy4(c, x, stride, y)
	k, n := len(c[0]), len(y[0])
	j := n &^ (nrTile/2 - 1)
	if j == n {
		axpy4Tile(y, x, stride, c, k, 1, zero)
		return
	}
	if j > 0 {
		axpy4Tile(&[4][]float32{y[0][:j], y[1][:j], y[2][:j], y[3][:j]}, x, stride, c, k, 1, zero)
	}
	if zero {
		for _, yr := range y {
			clear(yr[j:])
		}
	}
	if k > 0 {
		axpy4Rows(y[0][j:], y[1][j:], y[2][j:], y[3][j:], x[j:], stride, c[0], c[1], c[2], c[3], k, 1, false)
	}
}

// checkAxpy4 panics, before anything is written, unless the four-row
// operands fit together.
func checkAxpy4(c *[4][]float32, x []float32, stride int, y *[4][]float32) {
	n, k := len(y[0]), len(c[0])
	if len(y[1]) != n || len(y[2]) != n || len(y[3]) != n || len(c[1]) != k || len(c[2]) != k || len(c[3]) != k {
		panic("tensor: Axpy4 length mismatch")
	}
	if k > 0 && (stride < 0 || len(x) < (k-1)*stride+n) {
		panic("tensor: Axpy4 source shorter than its rows")
	}
}

// GatherRows copies the n elements from off of every row of src into
// consecutive n-element rows of dst, dst[b*n+p] = src[b][off+p], and
// reports whether every value it copied is finite: the check rides on the
// copy, as in the panel pack.
func GatherRows(dst []float32, src [][]float32, off, n int) (finite bool) {
	if off < 0 || n < 0 || len(dst) < len(src)*n {
		panic("tensor: GatherRows destination shorter than its rows")
	}
	for _, s := range src {
		if len(s) < off+n {
			panic("tensor: GatherRows source row shorter than its span")
		}
	}
	return gatherRows(dst, src, off, n)
}

// Symmetrize fills the off-diagonal of the m×m matrix in dst, rows stride
// apart, from its strict lower triangle packed row by row in lower (row a's
// a elements after row a-1's): dst[a*stride+b] = dst[b*stride+a] =
// lower[a*(a-1)/2+b] for b < a < m. The diagonal, the columns from m on and
// the rows from m on are left alone.
func Symmetrize(dst []float32, stride, m int, lower []float32) {
	if m < 2 {
		return
	}
	if stride < m || len(dst) < (m-1)*stride+m-1 || len(lower) < m*(m-1)/2 {
		panic("tensor: Symmetrize operands smaller than the matrix")
	}
	symmetrize(dst, stride, lower, m)
}

// PackLower copies the strict lower triangle of the m×m matrix in src,
// rows stride apart, into dst row by row, Symmetrize's packing:
// dst[a*(a-1)/2+b] = src[a*stride+b] for b < a < m.
func PackLower(dst, src []float32, stride, m int) {
	if m < 2 {
		return
	}
	if stride < m-1 || len(src) < (m-1)*stride+m-1 || len(dst) < m*(m-1)/2 {
		panic("tensor: PackLower operands smaller than the triangle")
	}
	packLower(dst, src, stride, m)
}

// Transpose4 writes four equal-length rows as four adjacent columns of a
// row-major destination: dst[p*stride+r] = s_r[p]. Moving four rows at once
// makes every store run 16 contiguous bytes, which is what a transposition
// costs least with.
func Transpose4(dst []float32, stride int, s0, s1, s2, s3 []float32) {
	n := len(s0)
	s1, s2, s3 = s1[:n], s2[:n], s3[:n]
	if n == 0 {
		return
	}
	if stride < 4 || len(dst) < (n-1)*stride+4 {
		panic("tensor: Transpose4 destination narrower than its columns")
	}
	transpose4(dst, stride, s0, s1, s2, s3)
}

// axpy1Go is the portable body of Axpy.
func axpy1Go(d, b []float32, a float32) {
	d = d[:len(b)]
	for j, bv := range b {
		d[j] += float32(a * bv)
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
			d0[j] += float32(a0 * bv)
			d1[j] += float32(a1 * bv)
			d2[j] += float32(a2 * bv)
			d3[j] += float32(a3 * bv)
		}
	}
}

// axpy4TileGo is the portable body of the tile: the four-row loop that adds
// every term, over rows that start at +0 when zero is set. Its callers pass
// rows whose length is a multiple of eight, the columns the AVX body's
// tiles and half tile cover.
func axpy4TileGo(d *[4][]float32, b []float32, stride int, c *[4][]float32, k, cstride int, zero bool) {
	if zero {
		for _, dr := range d {
			clear(dr)
		}
	}
	axpy4RowsGo(d[0], d[1], d[2], d[3], b, stride, c[0], c[1], c[2], c[3], k, cstride, false)
}

// packPanelsGo is the portable body of packPanels: it copies the k×n
// row-major b into dst as column panels nrTile wide, the one of column j (a
// multiple of nrTile) at j*k with its rows nrTile apart, the last one
// padded with zeros, and reports whether every value of b is finite (v-v is
// 0 exactly when v is).
func packPanelsGo(dst, b []float32, k, n int) bool {
	finite := true
	for j := 0; j < n; j += nrTile {
		w := min(nrTile, n-j)
		panel := dst[j*k : j*k+nrTile*k]
		for p := 0; p < k; p++ {
			row := panel[p*nrTile : (p+1)*nrTile]
			for c, v := range b[p*n+j : p*n+j+w] {
				row[c] = v
				finite = finite && v-v == 0
			}
			clear(row[w:])
		}
	}
	return finite
}

// gatherRowsGo is the portable body of GatherRows (v-v is 0 exactly when v
// is finite).
func gatherRowsGo(dst []float32, src [][]float32, off, n int) bool {
	finite := true
	for b, s := range src {
		row := dst[b*n : (b+1)*n]
		for p, v := range s[off : off+n] {
			row[p] = v
			finite = finite && v-v == 0
		}
	}
	return finite
}

// symmetrizeGo is the portable body of Symmetrize.
func symmetrizeGo(dst []float32, stride int, lower []float32, m int) {
	pos := 0
	for a := 1; a < m; a++ {
		for b, v := range lower[pos : pos+a] {
			dst[a*stride+b] = v
			dst[b*stride+a] = v
		}
		pos += a
	}
}

// packLowerGo is the portable body of PackLower.
func packLowerGo(dst, src []float32, stride, m int) {
	pos := 0
	for a := 1; a < m; a++ {
		pos += copy(dst[pos:pos+a], src[a*stride:a*stride+a])
	}
}

// transpose4Go is the portable body of Transpose4.
func transpose4Go(dst []float32, stride int, s0, s1, s2, s3 []float32) {
	for p, v := range s0 {
		q := dst[p*stride : p*stride+4 : p*stride+4]
		q[0], q[1], q[2], q[3] = v, s1[p], s2[p], s3[p]
	}
}
