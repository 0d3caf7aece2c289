package tensor

import "fmt"

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Resize reshapes m to rows×cols, reusing the backing array when it has the
// capacity and reallocating (contents undefined) otherwise. The resized data
// is NOT zeroed — callers own every element they read. Resize is the
// workspace primitive behind the allocation-free train-step hot path: a nil
// receiver is allowed and allocates, so `m = m.Resize(r, c)` works as a
// lazily-grown per-step buffer.
func (m *Matrix) Resize(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	n := rows * cols
	if m == nil || cap(m.Data) < n {
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, n)}
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
	return m
}

// Row returns the i-th row as a sub-slice (shared storage).
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// parallelThreshold is the number of multiply-adds below which a matmul stays
// single-threaded at any width. A fan-out costs the caller 15–30 µs (queue a
// span, wake a pool worker, wait for it), and the AVX kernels get through
// 9–17 multiply-adds per nanosecond, so the work has to be worth a few
// hundred microseconds before a second worker pays. Measured on a 2-vCPU
// Xeon (model 207) with the AVX body, best of four, 1 worker → 2 workers,
// for MatMulTransB / MatMul / MatMulTransA on the MLP shapes (batch × in ·
// out; BenchmarkMatMulTransB_MLP, BenchmarkMatMul_MLP,
// BenchmarkMatMulTransA_MLP):
//
//	 128×383·32   (1.6M)  125→137 µs   169→176 µs   154→160 µs   slower
//	  96×256·128  (3.1M)  214→223 µs   240→209 µs   215→209 µs   even
//	 128×256·128  (4.2M)  278→243 µs   276→222 µs   306→267 µs   1.1–1.2x
//	 256×256·128  (8.4M)  606→384 µs   504→434 µs   767→355 µs   1.2–2.2x
//	1024×256·128   (34M)  2.75→1.33 ms 2.18→1.59 ms 2.21→1.60 ms 1.4–2.1x
//	1024×383·256  (100M)  9.2→5.6 ms   8.5→4.9 ms   10.5→6.0 ms  1.7–1.8x
//
// The break-even lies between 3.1M and 4.2M. On hosts without AVX the Go
// loops take longer over the same product, so there the threshold only
// errs towards staying single-threaded. The old value, 1<<17, was sized
// for the scalar kernels (~130 µs of work then, ~10 µs now).
const parallelThreshold = 1 << 22

// MatMulWorkers computes dst = a @ b where a is m×k and b is k×n. dst must
// be m×n and is overwritten; it panics on shape mismatch. workers is the
// row-parallel width: 0 means GOMAXPROCS, 1 forces single-threaded.
// Products below parallelThreshold stay single-threaded at any width, so
// small matmuls never pay fan-out overhead (or allocate). Results are
// bitwise identical at every width and tile boundary: rows are independent,
// and the blocked kernel preserves the naive per-element accumulation order.
func MatMulWorkers(workers int, dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shapes %dx%d @ %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if workers = EffectiveWorkers(workers); workers <= 1 || a.Rows*a.Cols*b.Cols < parallelThreshold {
		matMulBlocked(dst, a, b, 0, a.Rows)
		return
	}
	ParallelSpans(workers, a.Rows, func(lo, hi int) { matMulBlocked(dst, a, b, lo, hi) })
}

// MatMulTransBWorkers computes dst = a @ bᵀ where a is m×k and b is n×k;
// dst must be m×n. This is the shape of a linear layer's forward pass. The
// row-parallel width follows MatMulWorkers' contract. bt, when not
// nil, is scratch the caller owns and passes again on every call: from
// transBPackRows rows of a upward it is reshaped to k×n, filled with bᵀ and
// the product runs saxpy-form on the vector primitive; it grows once to its
// high-water size and is never allocated after that. With bt nil, or fewer
// rows, the dot-form kernel reads b as it is. Both forms produce the same
// bits.
func MatMulTransBWorkers(workers int, dst, a, b, bt *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes %dx%d @ (%dx%d)T -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	kernel, src := matMulTransBBlocked, b
	if bt != nil && a.Rows >= transBPackRows {
		packTranspose(bt, b)
		kernel, src = matMulTransBPacked, bt
	}
	if workers = EffectiveWorkers(workers); workers <= 1 || a.Rows*a.Cols*b.Rows < parallelThreshold {
		kernel(dst, a, src, 0, a.Rows)
		return
	}
	ParallelSpans(workers, a.Rows, func(lo, hi int) { kernel(dst, a, src, lo, hi) })
}

// MatMulTransAWorkers computes dst = aᵀ @ b where a is k×m and b is k×n;
// dst must be m×n. This is the shape used by the backward pass for weights.
// The width, over the output rows, follows MatMulWorkers' contract; it is
// safe because the blocked kernel writes each dst row from exactly one span.
func MatMulTransAWorkers(workers int, dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes (%dx%d)T @ %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if workers = EffectiveWorkers(workers); workers <= 1 || a.Rows*a.Cols*b.Cols < parallelThreshold {
		matMulTransABlocked(dst, a, b, 0, a.Cols)
		return
	}
	ParallelSpans(workers, a.Cols, func(lo, hi int) { matMulTransABlocked(dst, a, b, lo, hi) })
}

// AddRowVec adds vector v (len == m.Cols) to every row of m in place.
func AddRowVec(m *Matrix, v []float32) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVec length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j, bv := range v {
			ri[j] += bv
		}
	}
}

// ColSums accumulates the column sums of m into dst (len == m.Cols).
// dst is overwritten.
func ColSums(dst []float32, m *Matrix) {
	if len(dst) != m.Cols {
		panic("tensor: ColSums length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j, v := range ri {
			dst[j] += v
		}
	}
}

// Scale multiplies every element of x by alpha.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dot returns the inner product of equal-length slices.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s float32
	for i, v := range x {
		s += v * y[i]
	}
	return s
}
