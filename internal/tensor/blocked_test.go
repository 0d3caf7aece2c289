package tensor

import (
	"fmt"
	"math"
	"testing"
)

// raggedShapes covers tile remainders on every axis: dimensions below,
// at, and just past the mrMatMul / 2×4 tile boundaries, plus larger
// shapes that cross parallelThreshold so the span-partitioned paths run.
var raggedShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{2, 3, 2},
	{3, 5, 7},
	{4, 4, 4},
	{5, 9, 6},
	{6, 2, 5},
	{7, 7, 7},
	{8, 16, 8},
	{9, 13, 11},
	{16, 31, 17},
	{33, 63, 29},
	{64, 64, 64},
	{65, 127, 66},
	{130, 257, 129}, // crosses parallelThreshold, so the span paths run
}

// sparseMatrix returns a rows×cols matrix where roughly a third of the
// entries are exactly zero (including a negative zero), exercising the
// skip-zero branches of the saxpy-form kernels in every mixed pattern.
func sparseMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	rng.FillNormal(m.Data, 0, 1)
	for i := range m.Data {
		switch rng.Intn(6) {
		case 0, 1:
			m.Data[i] = 0
		case 2:
			m.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	return m
}

// requireBitwiseEqual fails unless got and want match element-for-element at
// the bit level (so -0 vs +0 and NaN payloads count as mismatches).
func requireBitwiseEqual(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)",
				label, i, math.Float32bits(v), v, math.Float32bits(want.Data[i]), want.Data[i])
		}
	}
}

func TestMatMulBlockedBitwiseParity(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(101)
		for _, s := range raggedShapes {
			a := sparseMatrix(rng, s.m, s.k)
			b := sparseMatrix(rng, s.k, s.n)
			want := NewMatrix(s.m, s.n)
			matMulNaive(want, a, b)
			for _, workers := range []int{1, 2, 8} {
				got := NewMatrix(s.m, s.n)
				MatMulWorkers(workers, got, a, b)
				requireBitwiseEqual(t, got, want,
					fmt.Sprintf("MatMul %dx%d@%dx%d workers=%d", s.m, s.k, s.k, s.n, workers))
			}
		}
	})
}

func TestMatMulTransBBlockedBitwiseParity(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(102)
		shapes := append([]struct{ m, k, n int }(nil), raggedShapes...)
		// Both sides of the transBPackRows switch, below parallelThreshold and
		// (from 7 rows on) above it, so the serial and the span paths of each
		// form run.
		const bigK = 1031
		for _, m := range []int{1, 7, 8, 9} {
			shapes = append(shapes, struct{ m, k, n int }{m, 13, 5}, struct{ m, k, n int }{m, bigK, parallelThreshold/(7*bigK) + 1})
		}
		var bt Matrix // reused across shapes, as a layer reuses it across batches
		for _, s := range shapes {
			a := sparseMatrix(rng, s.m, s.k)
			b := sparseMatrix(rng, s.n, s.k)
			want := NewMatrix(s.m, s.n)
			matMulTransBNaive(want, a, b)
			for _, workers := range []int{1, 2, 8} {
				for _, scratch := range []*Matrix{nil, &bt} {
					got := NewMatrix(s.m, s.n)
					MatMulTransBWorkers(workers, got, a, b, scratch)
					requireBitwiseEqual(t, got, want,
						fmt.Sprintf("MatMulTransB %dx%d@(%dx%d)T workers=%d packed=%v", s.m, s.k, s.n, s.k, workers, scratch != nil))
				}
			}
		}
	})
}

func TestMatMulTransABlockedBitwiseParity(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(103)
		for _, s := range raggedShapes {
			a := sparseMatrix(rng, s.k, s.m)
			b := sparseMatrix(rng, s.k, s.n)
			want := NewMatrix(s.m, s.n)
			matMulTransANaive(want, a, b)
			for _, workers := range []int{1, 2, 8} {
				got := NewMatrix(s.m, s.n)
				MatMulTransAWorkers(workers, got, a, b)
				requireBitwiseEqual(t, got, want,
					fmt.Sprintf("MatMulTransA (%dx%d)T@%dx%d workers=%d", s.k, s.m, s.k, s.n, workers))
			}
		}
	})
}

func TestParallelSpansCoversRange(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 7, 100} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			hits := make([]int32, n)
			ParallelSpans(workers, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("workers=%d n=%d: bad span [%d,%d)", workers, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func benchMatMulPair(b *testing.B, size int, fn func(dst, a, c *Matrix)) {
	rng := NewRNG(1)
	a := randomMatrix(rng, size, size)
	c := randomMatrix(rng, size, size)
	dst := NewMatrix(size, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(dst, a, c)
	}
}

func BenchmarkMatMul_Naive_64(b *testing.B)  { benchMatMulPair(b, 64, matMulNaive) }
func BenchmarkMatMul_Naive_256(b *testing.B) { benchMatMulPair(b, 256, matMulNaive) }
func BenchmarkMatMul_Naive_1024(b *testing.B) {
	benchMatMulPair(b, 1024, matMulNaive)
}

func BenchmarkMatMul_Blocked_64(b *testing.B) {
	benchMatMulPair(b, 64, func(dst, a, c *Matrix) { matMulBlocked(dst, a, c, 0, a.Rows) })
}
func BenchmarkMatMul_Blocked_256(b *testing.B) {
	benchMatMulPair(b, 256, func(dst, a, c *Matrix) { matMulBlocked(dst, a, c, 0, a.Rows) })
}
func BenchmarkMatMul_Blocked_1024(b *testing.B) {
	benchMatMulPair(b, 1024, func(dst, a, c *Matrix) { matMulBlocked(dst, a, c, 0, a.Rows) })
}

// mlpShapes are the products of the training benchmarks' MLPs (rows × in ·
// out), from below parallelThreshold to the largest: the shapes its table
// is measured on.
var mlpShapes = []struct{ m, k, n int }{
	{128, 383, 32}, {96, 256, 128}, {128, 256, 128}, {256, 256, 128}, {1024, 256, 128}, {1024, 383, 256},
}

// benchMLP times one of a linear layer's three products on every MLP shape
// at one and two workers; build allocates one shape's operands and returns
// the product over them.
func benchMLP(b *testing.B, build func(rng *RNG, m, k, n int) func(workers int)) {
	for _, s := range mlpShapes {
		run := build(NewRNG(1), s.m, s.k, s.n)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dx%dx%d/workers=%d", s.m, s.k, s.n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run(workers)
				}
			})
		}
	}
}

// BenchmarkMatMulTransB_MLP is Linear.Forward's product, y = x @ Wᵀ, packed
// scratch included.
func BenchmarkMatMulTransB_MLP(b *testing.B) {
	benchMLP(b, func(rng *RNG, m, k, n int) func(int) {
		x, w, y := randomMatrix(rng, m, k), randomMatrix(rng, n, k), NewMatrix(m, n)
		var wt Matrix
		return func(workers int) { MatMulTransBWorkers(workers, y, x, w, &wt) }
	})
}

// BenchmarkMatMul_MLP is Linear.Backward's input gradient, dX = dY @ W.
func BenchmarkMatMul_MLP(b *testing.B) {
	benchMLP(b, func(rng *RNG, m, k, n int) func(int) {
		dy, w, dx := randomMatrix(rng, m, n), randomMatrix(rng, n, k), NewMatrix(m, k)
		return func(workers int) { MatMulWorkers(workers, dx, dy, w) }
	})
}

// BenchmarkMatMulTransA_MLP is Linear.Backward's weight gradient,
// gW = dYᵀ @ x.
func BenchmarkMatMulTransA_MLP(b *testing.B) {
	benchMLP(b, func(rng *RNG, m, k, n int) func(int) {
		dy, x, gw := randomMatrix(rng, m, n), randomMatrix(rng, m, k), NewMatrix(n, k)
		return func(workers int) { MatMulTransAWorkers(workers, gw, dy, x) }
	})
}
