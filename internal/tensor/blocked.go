package tensor

// This file holds the matmul kernels behind MatMulWorkers,
// MatMulTransAWorkers and MatMulTransBWorkers. All three are the same
// computation — rows of dst = A @ B, accumulated as
// dst[i][:] += A[i][p]*B[p][:] for ascending p — run the way Goto and van de
// Geijn lay a product out ("Anatomy of High-Performance Matrix
// Multiplication", ACM TOMS 2008): B is first copied into column panels
// nrTile wide, in scratch the caller owns (Panels), and each 4×16 block of
// dst is then one register-held tile (axpy4Tile, see axpy.go) over a
// kcPanel-term slice of one panel, which stays in L1 while every row tile
// of the span passes over it. The n mod 16 edge columns are the last
// panel, padded with zeros, and run through a tile in scratch. The rows
// past the last whole tile take single-row passes in MatMul and
// MatMulTransA and the dot form in MatMulTransB.
//
// The vector lanes, the tiles, the k blocks and the row spans of the
// parallel entry points all cut across *different* output elements or
// keep each element's terms in order. Every single element is still one
// float32 accumulator that receives its terms one at a time in
// ascending-p order, each term computed as the scalar loop computes it. So
// the results are bitwise identical to the naive loops (naive_test.go, the
// executable specification) at any tile boundary, lane count and worker
// count; parity tests pin that across ragged shapes.
//
// MatMul and MatMulTransA skip the terms whose A[i][p] is zero, as the
// naive loops do; the tile adds every term. The two agree wherever B is
// finite: dst starts at +0 and only ever adds, and in round-to-nearest x+y
// is -0 only when x and y both are, so no element ever holds -0; adding
// (±0)·B[p][j], a zero whenever B[p][j] is finite, then changes no bit. The
// pack checks every value it copies, and a B holding an Inf or a NaN runs
// the skipping four-row passes instead (saxpyRows without panels).

// mrMatMul is the output-row height of a tile: the rows that share each
// load of B.
const mrMatMul = 4

// kcPanel is the number of terms a tile takes per call: a kcPanel×16 slice
// of a panel is 16 KB, which stays in L1 while the row tiles pass over it.
const kcPanel = 256

// transBPackRows is the number of a-rows from which MatMulTransB packs bᵀ
// into panels. Packing costs one scalar move per weight per call; below
// eight rows that is more than the one- or two-row product saves
// (measured on the serving path: p50 of 1–2-row batches went 1.20 → 1.27 ms
// without this guard), so small batches stay on the dot-form kernel. The two
// forms are bitwise equal, so the switch is invisible in the results.
const transBPackRows = 8

// Panels is the scratch a product packs its B operand into. The caller owns
// it and passes it again on every call; the zero value is ready, and it
// grows once to the largest operand it has held, so steady-state products
// never allocate.
type Panels struct{ data []float32 }

// grow returns the first size elements of the scratch, reallocating only
// when it is too small.
func (pk *Panels) grow(size int) []float32 {
	if cap(pk.data) < size {
		pk.data = make([]float32, size)
	}
	return pk.data[:size]
}

// rows packs the k×n row-major b, the operand of a product that skips
// zero terms into m output rows, and returns the panels, or nil where the
// tile cannot run: fewer rows than one tile, or a b holding an Inf or a
// NaN, which the skip must keep out of the sums.
func (pk *Panels) rows(b *Matrix, m int) []float32 {
	if m < mrMatMul {
		return nil
	}
	dst := pk.grow(panelsSize(b.Rows, b.Cols))
	if !packPanels(dst, b.Data[:b.Rows*b.Cols], b.Rows, b.Cols) {
		return nil
	}
	return dst
}

// transposed packs bᵀ for the n×k b: the panel of column j holds rows j..
// of b, each as a column. Four rows at a time keep every store 16
// contiguous bytes (Transpose4).
func (pk *Panels) transposed(b *Matrix) []float32 {
	n, k := b.Rows, b.Cols
	dst := pk.grow(panelsSize(k, n))
	for j := 0; j < n; j += nrTile {
		w := min(nrTile, n-j)
		panel := dst[j*k : j*k+nrTile*k]
		r := 0
		for ; r+4 <= w; r += 4 {
			Transpose4(panel[r:], nrTile, b.Row(j+r), b.Row(j+r+1), b.Row(j+r+2), b.Row(j+r+3))
		}
		for ; r < w; r++ {
			for p, v := range b.Row(j + r) {
				panel[p*nrTile+r] = v
			}
		}
		for p := 0; w < nrTile && p < k; p++ {
			clear(panel[p*nrTile+w : (p+1)*nrTile])
		}
	}
	return dst
}

// panelsSize is the length of the panels of a k×n operand: one nrTile-wide
// column panel of k rows per nrTile columns, the last padded with zeros.
func panelsSize(k, n int) int { return (n + nrTile - 1) / nrTile * nrTile * k }

// panelRows computes the whole four-row tiles of rows [lo, hi) of
// dst = A @ B from B's panels pk, adding every term, and returns the first
// row it left. A is rows×k with element A[i][p] at ad[i*rs+p*ps]: (rs, ps)
// = (k, 1) reads a row-major matrix, (1, cols) reads the transpose of one.
// The loops run k block by k block, so that each element's terms still
// arrive in ascending p; within a block, every row tile passes over one
// panel before the next panel is touched. The n mod 16 edge columns run
// through a tile of their own (edge) over the zero-padded last panel, and
// only their own columns are copied in and out. Every slice handed to the
// tile is cut to exactly what it reads, so its bounds checks are the
// callee's.
func panelRows(dst *Matrix, ad []float32, rs, ps, k int, pk []float32, lo, hi int) int {
	n := dst.Cols
	end := lo + (hi-lo)/mrMatMul*mrMatMul
	clear(dst.Data[lo*n : end*n])
	var edge [mrMatMul * nrTile]float32
	var d, c, e [mrMatMul][]float32 // a tile's rows, their coefficients, and the edge tile's rows
	for r := range e {
		e[r] = edge[r*nrTile : (r+1)*nrTile]
	}
	for p0 := 0; p0 < k; p0 += kcPanel {
		kb := min(kcPanel, k-p0)
		span := (kb-1)*ps + 1 // the elements of ad one row of the block runs over
		for j := 0; j < n; j += nrTile {
			w := min(nrTile, n-j)
			panel := pk[j*k+p0*nrTile : j*k+(p0+kb)*nrTile]
			for i := lo; i < end; i += mrMatMul {
				for r := range d {
					d[r] = dst.Data[(i+r)*n+j:][:w]
					c[r] = ad[(i+r)*rs+p0*ps:][:span]
				}
				if w == nrTile {
					axpy4Tile(&d, panel, nrTile, &c, kb, ps, false)
					continue
				}
				for r := range d {
					copy(e[r], d[r])
				}
				axpy4Tile(&e, panel, nrTile, &c, kb, ps, false)
				for r := range d {
					copy(d[r], e[r])
				}
			}
		}
	}
	return end
}

// saxpyRows computes rows [lo, hi) of dst = A @ b, A as panelRows reads it,
// skipping terms whose A[i][p] == 0: the naive order. With pk, the panels
// of a finite b, the whole row tiles run on panelRows, which adds those
// terms instead and lands on the same bits (see the top of this file).
// Without, each four-row tile is one call of the skipping four-row pass
// over all k terms. The rows past the last tile take single-row passes.
func saxpyRows(dst *Matrix, ad []float32, rs, ps, k int, b *Matrix, pk []float32, lo, hi int) {
	n := b.Cols
	span := 0 // the elements of ad one row of A runs over
	if k > 0 {
		span = (k-1)*ps + 1
	}
	src := b.Data[:k*n]
	i := lo
	if pk != nil {
		i = panelRows(dst, ad, rs, ps, k, pk, lo, hi)
	}
	clear(dst.Data[i*n : hi*n])
	for ; i+mrMatMul <= hi; i += mrMatMul {
		axpy4Rows(dst.Data[(i+0)*n:(i+1)*n], dst.Data[(i+1)*n:(i+2)*n], dst.Data[(i+2)*n:(i+3)*n], dst.Data[(i+3)*n:(i+4)*n],
			src, n,
			ad[(i+0)*rs:(i+0)*rs+span], ad[(i+1)*rs:(i+1)*rs+span], ad[(i+2)*rs:(i+2)*rs+span], ad[(i+3)*rs:(i+3)*rs+span],
			k, ps, true)
	}
	for ; i < hi; i++ {
		di := dst.Data[i*n : (i+1)*n]
		ai := ad[i*rs:]
		for p := 0; p < k; p++ {
			if av := ai[p*ps]; av != 0 {
				Axpy(av, src[p*n:(p+1)*n], di)
			}
		}
	}
}

// matMulTransBRows computes rows [lo, hi) of dst = a @ bᵀ. With pk, the
// panels of bᵀ, the whole row tiles run on panelRows: the naive kernel has
// no zero skip here, so the tiles are operation for operation its dot
// products. The rest, all of it without pk, takes the dot form, which
// reads b as it is.
func matMulTransBRows(dst, a, b *Matrix, pk []float32, lo, hi int) {
	i := lo
	if pk != nil {
		i = panelRows(dst, a.Data, a.Cols, 1, a.Cols, pk, lo, hi)
	}
	matMulTransBBlocked(dst, a, b, i, hi)
}

// matMulTransBBlocked computes rows [lo, hi) of dst = a @ bᵀ in dot form,
// straight from b, with a 2×4 register tile: eight dot-product accumulators,
// each a single chain in ascending-p order (the naive kernel has no zero skip
// here, so neither does this one). It serves the products too small to pay
// for packing bᵀ (see transBPackRows), and the rows past the last tile of
// those that do; a single accumulator is a serial chain
// bound by FP-add latency, and the tile keeps eight of them in flight.
func matMulTransBBlocked(dst, a, b *Matrix, lo, hi int) {
	k, m := a.Cols, b.Rows
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a.Data[(i+0)*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		d0 := dst.Data[(i+0)*m : (i+1)*m]
		d1 := dst.Data[(i+1)*m : (i+2)*m]
		j := 0
		for ; j+4 <= m; j += 4 {
			b0 := b.Data[(j+0)*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s00, s01, s02, s03, s10, s11, s12, s13 float32
			for p, av0 := range a0 {
				av1 := a1[p]
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				s00 += float32(av0 * bv0)
				s01 += float32(av0 * bv1)
				s02 += float32(av0 * bv2)
				s03 += float32(av0 * bv3)
				s10 += float32(av1 * bv0)
				s11 += float32(av1 * bv1)
				s12 += float32(av1 * bv2)
				s13 += float32(av1 * bv3)
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < m; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s0, s1 float32
			for p, av0 := range a0 {
				bv := bj[p]
				s0 += float32(av0 * bv)
				s1 += float32(a1[p] * bv)
			}
			d0[j], d1[j] = s0, s1
		}
	}
	for ; i < hi; i++ {
		ai := a.Data[i*k : (i+1)*k]
		di := dst.Data[i*m : (i+1)*m]
		j := 0
		for ; j+4 <= m; j += 4 {
			b0 := b.Data[(j+0)*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			for p, av := range ai {
				s0 += float32(av * b0[p])
				s1 += float32(av * b1[p])
				s2 += float32(av * b2[p])
				s3 += float32(av * b3[p])
			}
			di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
		}
		for ; j < m; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s float32
			for p, av := range ai {
				s += float32(av * bj[p])
			}
			di[j] = s
		}
	}
}
