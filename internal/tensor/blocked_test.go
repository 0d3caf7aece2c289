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

// nonFinite returns a copy of m with about one element in ten set to ±Inf
// and one in six to a payload NaN (withNaNs), so that a source operand's
// non-finite values meet zero coefficients: 0·Inf and 0·NaN are NaNs the
// naive loops, which skip zero terms, never form, so a kernel that
// multiplies those terms out instead of skipping them fails the bitwise
// comparison.
func nonFinite(rng *RNG, m *Matrix) *Matrix {
	c := m.Clone()
	for i := range c.Data {
		if rng.Intn(10) == 0 {
			c.Data[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		}
	}
	withNaNs(rng, c.Data, nanB)
	return c
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
		var pk Panels // reused across shapes, as a layer reuses it across batches
		for _, s := range raggedShapes {
			a := sparseMatrix(rng, s.m, s.k)
			finite := sparseMatrix(rng, s.k, s.n)
			for _, b := range []*Matrix{finite, nonFinite(rng, finite)} {
				want := NewMatrix(s.m, s.n)
				matMulNaive(want, a, b)
				for _, workers := range []int{1, 2, 8} {
					got := NewMatrix(s.m, s.n)
					MatMulWorkers(workers, got, a, b, &pk)
					requireBitwiseEqual(t, got, want,
						fmt.Sprintf("MatMul %dx%d@%dx%d workers=%d finite=%v", s.m, s.k, s.k, s.n, workers, b == finite))
				}
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
		var pk Panels // reused across shapes, as a layer reuses it across batches
		for _, s := range shapes {
			a := sparseMatrix(rng, s.m, s.k)
			b := sparseMatrix(rng, s.n, s.k)
			want := NewMatrix(s.m, s.n)
			matMulTransBNaive(want, a, b)
			for _, workers := range []int{1, 2, 8} {
				for _, scratch := range []*Panels{new(Panels), &pk} {
					got := NewMatrix(s.m, s.n)
					MatMulTransBWorkers(workers, got, a, b, scratch)
					requireBitwiseEqual(t, got, want,
						fmt.Sprintf("MatMulTransB %dx%d@(%dx%d)T workers=%d reused=%v", s.m, s.k, s.n, s.k, workers, scratch == &pk))
				}
			}
		}
	})
}

func TestMatMulTransABlockedBitwiseParity(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(103)
		var pk Panels
		for _, s := range raggedShapes {
			a := sparseMatrix(rng, s.k, s.m)
			finite := sparseMatrix(rng, s.k, s.n)
			for _, b := range []*Matrix{finite, nonFinite(rng, finite)} {
				want := NewMatrix(s.m, s.n)
				matMulTransANaive(want, a, b)
				for _, workers := range []int{1, 2, 8} {
					got := NewMatrix(s.m, s.n)
					MatMulTransAWorkers(workers, got, a, b, &pk)
					requireBitwiseEqual(t, got, want,
						fmt.Sprintf("MatMulTransA (%dx%d)T@%dx%d workers=%d finite=%v", s.k, s.m, s.k, s.n, workers, b == finite))
				}
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

// serialMatMul is MatMul on one worker with packing scratch reused across
// calls, as a layer runs it.
func serialMatMul() func(dst, a, c *Matrix) {
	var pk Panels
	return func(dst, a, c *Matrix) { MatMulWorkers(1, dst, a, c, &pk) }
}

func BenchmarkMatMul_Blocked_64(b *testing.B)   { benchMatMulPair(b, 64, serialMatMul()) }
func BenchmarkMatMul_Blocked_256(b *testing.B)  { benchMatMulPair(b, 256, serialMatMul()) }
func BenchmarkMatMul_Blocked_1024(b *testing.B) { benchMatMulPair(b, 1024, serialMatMul()) }

// mlpShapes are the products of the training benchmarks' MLPs (rows × in ·
// out), from below parallelThreshold to the largest: the shapes its table
// is measured on.
var mlpShapes = []struct{ m, k, n int }{
	{128, 383, 32}, {96, 256, 128}, {128, 256, 128}, {256, 256, 128}, {1024, 256, 128}, {1024, 383, 256},
}

// benchMLP times one of a linear layer's three products on every MLP shape
// at one and two workers; build allocates one shape's operands, dY holding
// no zeros or, with half set, ReLU's zeros in about half its elements, and
// returns the product over them. zeros lists the dY variants to time.
func benchMLP(b *testing.B, zeros []string, build func(rng *RNG, m, k, n int, half bool) func(workers int)) {
	for _, s := range mlpShapes {
		for _, z := range zeros {
			run := build(NewRNG(1), s.m, s.k, s.n, z == "half")
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%dx%dx%d/workers=%d", s.m, s.k, s.n, workers)
				if len(zeros) > 1 {
					name = fmt.Sprintf("%dx%dx%d/zeros=%s/workers=%d", s.m, s.k, s.n, z, workers)
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						run(workers)
					}
				})
			}
		}
	}
}

// upstreamGrad returns an m×n dY; with half set, about half its elements are
// exact zeros, as a ReLU layer's backward leaves them (49–51% in the
// training benchmarks' MLPs).
func upstreamGrad(rng *RNG, m, n int, half bool) *Matrix {
	dy := randomMatrix(rng, m, n)
	for i := range dy.Data {
		if half && rng.Intn(2) == 0 {
			dy.Data[i] = 0
		}
	}
	return dy
}

// BenchmarkMatMulTransB_MLP is Linear.Forward's product, y = x @ Wᵀ, packing
// included.
func BenchmarkMatMulTransB_MLP(b *testing.B) {
	benchMLP(b, []string{"none"}, func(rng *RNG, m, k, n int, _ bool) func(int) {
		x, w, y := randomMatrix(rng, m, k), randomMatrix(rng, n, k), NewMatrix(m, n)
		var pk Panels
		return func(workers int) { MatMulTransBWorkers(workers, y, x, w, &pk) }
	})
}

// BenchmarkMatMul_MLP is Linear.Backward's input gradient, dX = dY @ W,
// packing included.
func BenchmarkMatMul_MLP(b *testing.B) {
	benchMLP(b, []string{"none", "half"}, func(rng *RNG, m, k, n int, half bool) func(int) {
		dy, w, dx := upstreamGrad(rng, m, n, half), randomMatrix(rng, n, k), NewMatrix(m, k)
		var pk Panels
		return func(workers int) { MatMulWorkers(workers, dx, dy, w, &pk) }
	})
}

// BenchmarkMatMulTransA_MLP is Linear.Backward's weight gradient,
// gW = dYᵀ @ x, packing included.
func BenchmarkMatMulTransA_MLP(b *testing.B) {
	benchMLP(b, []string{"none", "half"}, func(rng *RNG, m, k, n int, half bool) func(int) {
		dy, x, gw := upstreamGrad(rng, m, n, half), randomMatrix(rng, m, k), NewMatrix(n, k)
		var pk Panels
		return func(workers int) { MatMulTransAWorkers(workers, gw, dy, x, &pk) }
	})
}

// TestSkipFormTileBitwiseParity holds MatMul and MatMulTransA, whose naive
// loops skip zero terms, to those loops bit for bit where the kernels add
// the terms instead (the tile over a finite b) and where they fall back to
// the skip (a b holding an Inf or a NaN). Every zero in A is either +0 or
// -0, and in the fallback cases every non-finite value of b sits in a row
// whose coefficients are all zero, so that only the skip keeps it out of
// the result. The shapes put every n mod 16 and every row count mod 4 at k
// on both sides of the kcPanel blocks, plus one product big enough for the
// span-parallel path.
func TestSkipFormTileBitwiseParity(t *testing.T) {
	type shape struct{ m, k, n int }
	var shapes []shape
	for _, k := range []int{kcPanel - 1, kcPanel, kcPanel + 1, 2*kcPanel + 3} {
		for r := range nrTile {
			shapes = append(shapes, shape{mrMatMul + r%mrMatMul, k, nrTile*(r%3) + r})
		}
	}
	const bigK, bigN = 2*kcPanel + 3, 3*nrTile - 1
	shapes = append(shapes, shape{parallelThreshold/(bigK*bigN) + 3, bigK, bigN})

	// operands returns A (m×k, as the product reads it), a finite b (k×n)
	// and a copy of b with Infs and NaNs in rows whose coefficients are all
	// zero; at reads and writes A's element (i, p).
	operands := func(rng *RNG, s shape, at func(i, p int) *float32) (finite, poisoned *Matrix) {
		finite = randomMatrix(rng, s.k, s.n)
		poisoned = finite.Clone()
		for p := 0; p < s.k; p++ {
			if rng.Intn(8) != 0 {
				continue
			}
			for i := 0; i < s.m; i++ {
				*at(i, p) = float32(math.Copysign(0, float64(rng.Intn(2))-0.5))
			}
			for j := range poisoned.Row(p) {
				switch rng.Intn(3) {
				case 0:
					poisoned.Data[p*s.n+j] = float32(math.Inf(1 - 2*rng.Intn(2)))
				case 1:
					poisoned.Data[p*s.n+j] = math.Float32frombits(nanB | uint32(j))
				}
			}
		}
		return finite, poisoned
	}

	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(104)
		var pk Panels
		for _, s := range shapes {
			a := sparseMatrix(rng, s.m, s.k) // MatMul's A
			b, poisoned := operands(rng, s, func(i, p int) *float32 { return &a.Data[i*s.k+p] })
			at := sparseMatrix(rng, s.k, s.m) // MatMulTransA's Aᵀ
			bt, poisonedT := operands(rng, s, func(i, p int) *float32 { return &at.Data[p*s.m+i] })
			for _, workers := range []int{1, 2, 8} {
				for _, c := range []struct {
					name     string
					b        *Matrix
					naive    func(dst *Matrix)
					computed func(dst *Matrix)
				}{
					{"MatMul finite", b, func(d *Matrix) { matMulNaive(d, a, b) }, func(d *Matrix) { MatMulWorkers(workers, d, a, b, &pk) }},
					{"MatMul non-finite", poisoned, func(d *Matrix) { matMulNaive(d, a, poisoned) }, func(d *Matrix) { MatMulWorkers(workers, d, a, poisoned, &pk) }},
					{"MatMulTransA finite", bt, func(d *Matrix) { matMulTransANaive(d, at, bt) }, func(d *Matrix) { MatMulTransAWorkers(workers, d, at, bt, &pk) }},
					{"MatMulTransA non-finite", poisonedT, func(d *Matrix) { matMulTransANaive(d, at, poisonedT) }, func(d *Matrix) { MatMulTransAWorkers(workers, d, at, poisonedT, &pk) }},
				} {
					want, got := NewMatrix(s.m, s.n), NewMatrix(s.m, s.n)
					c.naive(want)
					c.computed(got)
					requireBitwiseEqual(t, got, want, fmt.Sprintf("%s m=%d k=%d n=%d workers=%d", c.name, s.m, s.k, s.n, workers))
				}
			}
		}
	})
}
