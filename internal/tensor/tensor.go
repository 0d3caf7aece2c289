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
// span, wake a pool worker, wait for it), and the register-held tile gets
// through 18–22 multiply-adds per nanosecond, so the work has to be worth
// a few hundred microseconds before a second worker pays. Measured on a
// 2-vCPU Xeon (model 207, one thread per core) with the AVX tile, the
// threshold set to zero, eight interleaved runs of one and two workers,
// median µs for MatMulTransB / MatMul / MatMulTransA on the MLP shapes
// (batch × in · out; BenchmarkMatMulTransB_MLP, BenchmarkMatMul_MLP and
// BenchmarkMatMulTransA_MLP, zeros=none) and the range of the three
// products' median paired speed-ups:
//
//	 128×383·32   (1.6M)    75→95 µs     111→135 µs    82→78 µs    0.8–1.0x
//	  96×256·128  (3.1M)   196→187 µs    162→168 µs   165→162 µs   0.9–1.1x
//	 128×256·128  (4.2M)   244→217 µs    225→195 µs   207→205 µs   1.0–1.1x
//	 256×256·128  (8.4M)   408→295 µs    357→286 µs   396→323 µs   1.3–1.4x
//	1024×256·128   (34M)  1.74→1.06 ms  1.83→1.04 ms 1.74→1.21 ms  1.4–1.8x
//	1024×383·256  (100M)  5.08→3.23 ms  4.60→2.97 ms 5.54→3.19 ms  1.6–1.7x
//
// The break-even lies between 3.1M and 4.2M. On hosts without AVX the Go
// loops take longer over the same product, so there the threshold only
// errs towards staying single-threaded.
const parallelThreshold = 1 << 22

// MatMulWorkers computes dst = a @ b where a is m×k and b is k×n. dst must
// be m×n and is overwritten; it panics on shape mismatch. workers is the
// row-parallel width: 0 means GOMAXPROCS, 1 forces single-threaded.
// Products below parallelThreshold stay single-threaded at any width, so
// small matmuls never pay fan-out overhead (or allocate). pk is the
// packing scratch the caller owns and passes again on every call (see
// Panels). Results are bitwise
// identical at every width and tile boundary: rows are independent, and
// the kernels preserve the naive per-element accumulation order.
func MatMulWorkers(workers int, dst, a, b *Matrix, pk *Panels) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shapes %dx%d @ %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	panels := pk.rows(b, a.Rows)
	if workers = EffectiveWorkers(workers); workers <= 1 || a.Rows*a.Cols*b.Cols < parallelThreshold {
		saxpyRows(dst, a.Data, a.Cols, 1, a.Cols, b, panels, 0, a.Rows)
		return
	}
	ParallelSpans(workers, a.Rows, func(lo, hi int) { saxpyRows(dst, a.Data, a.Cols, 1, a.Cols, b, panels, lo, hi) })
}

// MatMulTransBWorkers computes dst = a @ bᵀ where a is m×k and b is n×k;
// dst must be m×n. This is the shape of a linear layer's forward pass. The
// row-parallel width and pk follow MatMulWorkers' contract. From
// transBPackRows rows of a upward, bᵀ is packed into pk and the product
// runs on the tile; below, the dot-form kernel reads b as it is and pk is
// left alone. Both forms produce the same bits.
func MatMulTransBWorkers(workers int, dst, a, b *Matrix, pk *Panels) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes %dx%d @ (%dx%d)T -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	var panels []float32
	if a.Rows >= transBPackRows {
		panels = pk.transposed(b)
	}
	if workers = EffectiveWorkers(workers); workers <= 1 || a.Rows*a.Cols*b.Rows < parallelThreshold {
		matMulTransBRows(dst, a, b, panels, 0, a.Rows)
		return
	}
	ParallelSpans(workers, a.Rows, func(lo, hi int) { matMulTransBRows(dst, a, b, panels, lo, hi) })
}

// MatMulTransAWorkers computes dst = aᵀ @ b where a is k×m and b is k×n;
// dst must be m×n. This is the shape used by the backward pass for weights.
// The width, over the output rows, and pk follow MatMulWorkers' contract;
// the width is safe because the kernel writes each dst row from exactly
// one span.
func MatMulTransAWorkers(workers int, dst, a, b *Matrix, pk *Panels) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes (%dx%d)T @ %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	panels := pk.rows(b, a.Cols)
	if workers = EffectiveWorkers(workers); workers <= 1 || a.Rows*a.Cols*b.Cols < parallelThreshold {
		saxpyRows(dst, a.Data, 1, a.Cols, a.Rows, b, panels, 0, a.Cols)
		return
	}
	ParallelSpans(workers, a.Cols, func(lo, hi int) { saxpyRows(dst, a.Data, 1, a.Cols, a.Rows, b, panels, lo, hi) })
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
		s += float32(v * y[i])
	}
	return s
}
