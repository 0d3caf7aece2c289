package tensor

// This file holds the matmul kernels behind MatMulWorkers,
// MatMulTransAWorkers and MatMulTransBWorkers (MatMul, MatMulTransA and
// MatMulTransB below). All three are the same computation — rows of
// dst = A @ b, accumulated as dst[i][:] += A[i][p]*b[p][:] for ascending p — and their
// inner loops are the package's vector primitive (Axpy / Axpy4Skip /
// Axpy4Rows, see axpy.go): AVX where the host has it, plain Go elsewhere. Each
// four-row tile is one call over all its terms: MatMul and MatMulTransA,
// which skip zero terms, share saxpyRows and the primitive's skipping form;
// MatMulTransB, which never skips, hands its tiles to Axpy4Rows.
//
// The vector lanes, the four-row tile and the row spans of the parallel
// entry points all cut across *different* output elements. Every single
// element is still one float32 accumulator that receives its terms one at a
// time in ascending-p order, each term computed as the scalar loop computes
// it, with the same skip-zero semantics the naive loops have. So the results
// are bitwise identical to the naive triple loops at any tile boundary, lane
// count and worker count. Parity tests pin the kernels against the naive
// references across ragged shapes; the naive loops live in naive_test.go as
// the executable specification.
//
// Why four rows per pass: one load of a b vector feeds four multiply-adds,
// which is what moves the loop from load-bound to arithmetic-bound.

// mrMatMul is the output-row tile of the kernels: rows processed per pass
// over a b row (the width of Axpy4Skip and Axpy4Rows).
const mrMatMul = 4

// transBPackRows is the number of a-rows from which MatMulTransB packs bᵀ
// and runs saxpy-form. Packing costs one scalar move per weight per call;
// below eight rows that is more than the one- or two-row product saves
// (measured on the serving path: p50 of 1–2-row batches went 1.20 → 1.27 ms
// without this guard), so small batches stay on the dot-form kernel. The two
// forms are bitwise equal, so the switch is invisible in the results.
const transBPackRows = 8

// matMulBlocked computes rows [lo, hi) of dst = a @ b, skipping terms with
// a[i][p] == 0 — exactly the naive order.
func matMulBlocked(dst, a, b *Matrix, lo, hi int) {
	saxpyRows(dst, a.Data, a.Cols, 1, a.Cols, b, lo, hi)
}

// matMulTransABlocked computes output rows [lo, hi) of dst = aᵀ @ b. It is
// the naive p-outer loop interchanged to i-outer (so each dst row is written
// once, streaming, instead of being revisited for every p). Loop interchange
// does not reorder the terms of any single output element: dst[i][j] still
// accumulates a[p][i]*b[p][j] for ascending p with the a[p][i] == 0 skip.
func matMulTransABlocked(dst, a, b *Matrix, lo, hi int) {
	saxpyRows(dst, a.Data, 1, a.Cols, a.Rows, b, lo, hi)
}

// matMulTransBPacked computes rows [lo, hi) of dst = a @ bᵀ given bt = bᵀ.
// The naive kernel has no zero skip here, so every term of a four-row tile
// is due and the tile is one Axpy4Rows: dst[i][j] = 0, then += a[i][p]*bt[p][j]
// for ascending p, which is operation for operation the naive dot product.
func matMulTransBPacked(dst, a, bt *Matrix, lo, hi int) {
	k, n := a.Cols, bt.Cols
	clear(dst.Data[lo*n : hi*n])
	i := lo
	for ; i+mrMatMul <= hi; i += mrMatMul {
		Axpy4Rows(a.Data[(i+0)*k:(i+1)*k], a.Data[(i+1)*k:(i+2)*k], a.Data[(i+2)*k:(i+3)*k], a.Data[(i+3)*k:(i+4)*k],
			bt.Data, n,
			dst.Data[(i+0)*n:(i+1)*n], dst.Data[(i+1)*n:(i+2)*n], dst.Data[(i+2)*n:(i+3)*n], dst.Data[(i+3)*n:(i+4)*n])
	}
	for ; i < hi; i++ {
		di := dst.Data[i*n : (i+1)*n]
		for p, av := range a.Data[i*k : (i+1)*k] {
			Axpy(av, bt.Data[p*n:(p+1)*n], di)
		}
	}
}

// packTranspose reshapes the caller-owned bt to b.Cols×b.Rows (growing its
// backing array only when it is too small) and fills it with bᵀ.
func packTranspose(bt, b *Matrix) {
	m, k := b.Rows, b.Cols
	if cap(bt.Data) < m*k {
		bt.Data = make([]float32, m*k)
	}
	bt.Rows, bt.Cols, bt.Data = k, m, bt.Data[:m*k]
	j := 0
	for ; j+4 <= m; j += 4 {
		Transpose4(bt.Data[j:], m, b.Data[j*k:(j+1)*k], b.Data[(j+1)*k:(j+2)*k], b.Data[(j+2)*k:(j+3)*k], b.Data[(j+3)*k:(j+4)*k])
	}
	for ; j < m; j++ {
		col := bt.Data[j:]
		for p, v := range b.Data[j*k : (j+1)*k] {
			col[p*m] = v
		}
	}
}

// Transpose4 writes four equal-length rows as four adjacent columns of a
// row-major destination: dst[p*stride+r] = s_r[p]. Moving four rows at once
// makes every store run 16 contiguous bytes, which is what a transposition
// costs least with; callers finish a ragged edge column by column.
func Transpose4(dst []float32, stride int, s0, s1, s2, s3 []float32) {
	s1, s2, s3 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)]
	for p, v := range s0 {
		q := dst[p*stride : p*stride+4 : p*stride+4]
		q[0], q[1], q[2], q[3] = v, s1[p], s2[p], s3[p]
	}
}

// saxpyRows computes rows [lo, hi) of dst = A @ b, where A is rows×k and
// element A[i][p] is ad[i*rs+p*ps]: (rs, ps) = (k, 1) reads a row-major
// matrix, (1, cols) reads the transpose of one. Per output element (i, j)
// the accumulation is dst[i][j] += A[i][p]*b[p][j] for ascending p, skipping
// terms whose A[i][p] == 0. Each four-row tile is one call of the skipping
// primitive over all k terms, its coefficients read ps apart where they lie;
// every slice handed to it is cut to exactly what it reads, so their bounds
// checks are its.
func saxpyRows(dst *Matrix, ad []float32, rs, ps, k int, b *Matrix, lo, hi int) {
	n := b.Cols
	clear(dst.Data[lo*n : hi*n])
	span := 0 // the elements of ad one row of A runs over
	if k > 0 {
		span = (k-1)*ps + 1
	}
	src := b.Data[:k*n]
	i := lo
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

// matMulTransBBlocked computes rows [lo, hi) of dst = a @ bᵀ in dot form,
// straight from b, with a 2×4 register tile: eight dot-product accumulators,
// each a single chain in ascending-p order (the naive kernel has no zero skip
// here, so neither does this one). It serves the products too small to pay
// for packing bᵀ (see transBPackRows); a single accumulator is a serial chain
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
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < m; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s0, s1 float32
			for p, av0 := range a0 {
				bv := bj[p]
				s0 += av0 * bv
				s1 += a1[p] * bv
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
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
		}
		for ; j < m; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s float32
			for p, av := range ai {
				s += av * bj[p]
			}
			di[j] = s
		}
	}
}
