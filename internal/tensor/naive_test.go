package tensor

// Naive triple-loop matmul references. These are the executable
// specification of the accumulation order the blocked kernels in blocked.go
// must reproduce bitwise: per output element, terms are added one at a time
// in ascending-p order, with a skip of zero A-operands in the saxpy-form
// kernels (MatMul, MatMulTransA). The parity tests compare the blocked
// kernels against these across ragged shapes; the MatMul benchmarks report
// both so the tiling win stays visible in the bench trajectory.

// matMulNaive computes dst = a @ b with the reference loop nest.
func matMulNaive(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := range di {
			di[j] = 0
		}
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			bp := b.Data[p*b.Cols : (p+1)*b.Cols]
			for j, bv := range bp {
				di[j] += av * bv
			}
		}
	}
}

// matMulTransBNaive computes dst = a @ bᵀ with the reference loop nest.
func matMulTransBNaive(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < b.Rows; j++ {
			bj := b.Data[j*b.Cols : (j+1)*b.Cols]
			var s float32
			for p, av := range ai {
				s += av * bj[p]
			}
			di[j] = s
		}
	}
}

// matMulTransANaive computes dst = aᵀ @ b with the reference loop nest
// (p-outer outer-product accumulation).
func matMulTransANaive(dst, a, b *Matrix) {
	dst.Zero()
	for p := 0; p < a.Rows; p++ {
		ap := a.Data[p*a.Cols : (p+1)*a.Cols]
		bp := b.Data[p*b.Cols : (p+1)*b.Cols]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, bv := range bp {
				di[j] += av * bv
			}
		}
	}
}
