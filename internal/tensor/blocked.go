package tensor

// This file holds the register-tiled matmul kernels behind MatMul,
// MatMulTransA, and MatMulTransB. The tiling exists for instruction-level
// parallelism and cache reuse, not for changing the math: every output
// element is still a single float32 accumulator fed its terms in ascending-p
// order (with the same skip-zero semantics the naive loops have), so the
// results are bitwise identical to the naive triple loops at any tile
// boundary. Parity tests pin the blocked kernels against the naive
// references across ragged shapes; the naive loops live in naive_test.go as
// the executable specification.
//
// Why tiling helps a scalar Go build: a single dot-product accumulator is a
// serial dependency chain bounded by FP-add latency, while a 2×4 tile keeps
// eight independent chains in flight; and processing several output rows per
// pass over a shared B row halves the memory traffic of the saxpy-form
// kernels. The tile sizes below were picked with BenchmarkMatMul_* (64/256/
// 1024) on the development machine; they are deliberately small enough that
// the kernels never spill the accumulators.

// mrMatMul is the output-row tile of the saxpy-form kernels (MatMul and
// MatMulTransA): rows processed per pass over a B row.
const mrMatMul = 4

// matMulBlocked computes rows [lo, hi) of dst = a @ b.
// Per output element (i, j) the accumulation is dst[i][j] += a[i][p]*b[p][j]
// for ascending p, skipping terms with a[i][p] == 0 — exactly the naive
// order, whichever branch of the tile runs.
func matMulBlocked(dst, a, b *Matrix, lo, hi int) {
	k, n := a.Cols, b.Cols
	i := lo
	for ; i+mrMatMul <= hi; i += mrMatMul {
		d0 := dst.Data[(i+0)*n : (i+1)*n]
		d1 := dst.Data[(i+1)*n : (i+2)*n]
		d2 := dst.Data[(i+2)*n : (i+3)*n]
		d3 := dst.Data[(i+3)*n : (i+4)*n]
		clear(d0)
		clear(d1)
		clear(d2)
		clear(d3)
		a0 := a.Data[(i+0)*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		a2 := a.Data[(i+2)*k : (i+3)*k]
		a3 := a.Data[(i+3)*k : (i+4)*k]
		for p := 0; p < k; p++ {
			av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				// Full tile: one pass over bp feeds four row accumulators.
				for j, bv := range bp {
					d0[j] += av0 * bv
					d1[j] += av1 * bv
					d2[j] += av2 * bv
					d3[j] += av3 * bv
				}
				continue
			}
			// Mixed zeros: per-row passes keep the skip semantics exact.
			if av0 != 0 {
				for j, bv := range bp {
					d0[j] += av0 * bv
				}
			}
			if av1 != 0 {
				for j, bv := range bp {
					d1[j] += av1 * bv
				}
			}
			if av2 != 0 {
				for j, bv := range bp {
					d2[j] += av2 * bv
				}
			}
			if av3 != 0 {
				for j, bv := range bp {
					d3[j] += av3 * bv
				}
			}
		}
	}
	for ; i < hi; i++ {
		di := dst.Data[i*n : (i+1)*n]
		clear(di)
		ai := a.Data[i*k : (i+1)*k]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j, bv := range bp {
				di[j] += av * bv
			}
		}
	}
}

// matMulTransBBlocked computes rows [lo, hi) of dst = a @ bᵀ with a 2×4
// register tile: eight dot-product accumulators, each a single chain in
// ascending-p order (the naive kernel has no zero skip here, so neither does
// this one).
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

// matMulTransABlocked computes output rows [lo, hi) of dst = aᵀ @ b. It is
// the naive p-outer loop interchanged to i-outer (so each dst row is written
// once, streaming, instead of being revisited for every p) and then tiled
// mrMatMul output rows per pass over b. Loop interchange does not reorder
// the terms of any single output element: dst[i][j] still accumulates
// a[p][i]*b[p][j] for ascending p with the a[p][i] == 0 skip.
func matMulTransABlocked(dst, a, b *Matrix, lo, hi int) {
	kRows, aCols, n := a.Rows, a.Cols, b.Cols
	i := lo
	for ; i+mrMatMul <= hi; i += mrMatMul {
		d0 := dst.Data[(i+0)*n : (i+1)*n]
		d1 := dst.Data[(i+1)*n : (i+2)*n]
		d2 := dst.Data[(i+2)*n : (i+3)*n]
		d3 := dst.Data[(i+3)*n : (i+4)*n]
		clear(d0)
		clear(d1)
		clear(d2)
		clear(d3)
		for p := 0; p < kRows; p++ {
			ap := a.Data[p*aCols:]
			av0, av1, av2, av3 := ap[i], ap[i+1], ap[i+2], ap[i+3]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				for j, bv := range bp {
					d0[j] += av0 * bv
					d1[j] += av1 * bv
					d2[j] += av2 * bv
					d3[j] += av3 * bv
				}
				continue
			}
			if av0 != 0 {
				for j, bv := range bp {
					d0[j] += av0 * bv
				}
			}
			if av1 != 0 {
				for j, bv := range bp {
					d1[j] += av1 * bv
				}
			}
			if av2 != 0 {
				for j, bv := range bp {
					d2[j] += av2 * bv
				}
			}
			if av3 != 0 {
				for j, bv := range bp {
					d3[j] += av3 * bv
				}
			}
		}
	}
	for ; i < hi; i++ {
		di := dst.Data[i*n : (i+1)*n]
		clear(di)
		for p := 0; p < kRows; p++ {
			av := a.Data[p*aCols+i]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j, bv := range bp {
				di[j] += av * bv
			}
		}
	}
}
