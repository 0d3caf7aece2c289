package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	dst := NewMatrix(2, 2)
	MatMul(dst, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("dst[%d] = %v, want %v", i, dst.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := NewMatrix(5, 5)
	rng.FillNormal(a.Data, 0, 1)
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	dst := NewMatrix(5, 5)
	MatMul(dst, a, id)
	if !dst.Equal(a, 0) {
		t.Fatal("A @ I != A")
	}
	MatMul(dst, id, a)
	if !dst.Equal(a, 0) {
		t.Fatal("I @ A != A")
	}
}

// naiveMul is an independent reference implementation.
func naiveMul(a, b *Matrix, ta, tb bool) *Matrix {
	get := func(m *Matrix, trans bool, i, j int) float32 {
		if trans {
			return m.At(j, i)
		}
		return m.At(i, j)
	}
	rows, inner := a.Rows, a.Cols
	if ta {
		rows, inner = a.Cols, a.Rows
	}
	cols := b.Cols
	if tb {
		cols = b.Rows
	}
	dst := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var s float32
			for p := 0; p < inner; p++ {
				s += get(a, ta, i, p) * get(b, tb, p, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func randomMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	rng.FillNormal(m.Data, 0, 1)
	return m
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(16)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		dst := NewMatrix(m, n)
		MatMul(dst, a, b)
		if !dst.Equal(naiveMul(a, b, false, false), 1e-4) {
			t.Fatalf("trial %d: MatMul mismatch for %dx%d @ %dx%d", trial, m, k, k, n)
		}
	}
}

func TestMatMulTransBAgainstNaive(t *testing.T) {
	rng := NewRNG(8)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(16)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, n, k)
		dst := NewMatrix(m, n)
		MatMulTransB(dst, a, b)
		if !dst.Equal(naiveMul(a, b, false, true), 1e-4) {
			t.Fatalf("trial %d: MatMulTransB mismatch", trial)
		}
	}
}

func TestMatMulTransAAgainstNaive(t *testing.T) {
	rng := NewRNG(9)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(16)
		a := randomMatrix(rng, k, m)
		b := randomMatrix(rng, k, n)
		dst := NewMatrix(m, n)
		MatMulTransA(dst, a, b)
		if !dst.Equal(naiveMul(a, b, true, false), 1e-4) {
			t.Fatalf("trial %d: MatMulTransA mismatch", trial)
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Large enough to cross parallelThreshold.
	rng := NewRNG(10)
	a := randomMatrix(rng, 192, 128)
	b := randomMatrix(rng, 128, 192)
	if a.Rows*a.Cols*b.Cols < parallelThreshold {
		t.Fatal("shape no longer crosses parallelThreshold")
	}
	dst := NewMatrix(192, 192)
	MatMul(dst, a, b)
	if !dst.Equal(naiveMul(a, b, false, false), 1e-3) {
		t.Fatal("parallel MatMul mismatch with naive")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

func TestAddRowVecAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	AddRowVec(m, []float32{10, 20, 30})
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("AddRowVec[%d] = %v, want %v", i, m.Data[i], w)
		}
	}
	sums := make([]float32, 3)
	ColSums(sums, m)
	wantSums := []float32{25, 47, 69}
	for j, w := range wantSums {
		if sums[j] != w {
			t.Fatalf("ColSums[%d] = %v, want %v", j, sums[j], w)
		}
	}
}

func TestAxpyScaleDot(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	Axpy(2, x, y)
	for i, w := range []float32{6, 9, 12} {
		if y[i] != w {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], w)
		}
	}
	Scale(0.5, y)
	for i, w := range []float32{3, 4.5, 6} {
		if y[i] != w {
			t.Fatalf("Scale[%d] = %v, want %v", i, y[i], w)
		}
	}
	if d := Dot(x, x); d != 14 {
		t.Fatalf("Dot = %v, want 14", d)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
	x := make([]float32, 1000)
	r.FillUniform(x, -2, 3)
	for _, v := range x {
		if v < -2 || v >= 3 {
			t.Fatalf("FillUniform out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(6)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean too far from 0: %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance too far from 1: %v", variance)
	}
}

// Property: (A @ B) @ C == A @ (B @ C) within float tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	rng := NewRNG(11)
	f := func(seed uint16) bool {
		r := NewRNG(uint64(seed) + 1)
		m, k, n, p := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		c := randomMatrix(rng, n, p)
		ab := NewMatrix(m, n)
		MatMul(ab, a, b)
		abc1 := NewMatrix(m, p)
		MatMul(abc1, ab, c)
		bc := NewMatrix(k, p)
		MatMul(bc, b, c)
		abc2 := NewMatrix(m, p)
		MatMul(abc2, a, bc)
		return abc1.Equal(abc2, 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot(x, y) == Dot(y, x) and Dot is linear in its first argument.
func TestDotProperties(t *testing.T) {
	f := func(seed uint16, alpha float32) bool {
		if alpha != alpha || alpha > 1e6 || alpha < -1e6 { // skip NaN/huge
			return true
		}
		r := NewRNG(uint64(seed) + 3)
		n := 1 + r.Intn(32)
		x := make([]float32, n)
		y := make([]float32, n)
		r.FillNormal(x, 0, 1)
		r.FillNormal(y, 0, 1)
		if Dot(x, y) != Dot(y, x) {
			return false
		}
		ax := make([]float32, n)
		copy(ax, x)
		Scale(alpha, ax)
		lhs := float64(Dot(ax, y))
		rhs := float64(alpha) * float64(Dot(x, y))
		return math.Abs(lhs-rhs) <= 1e-3*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := NewRNG(1)
	a := randomMatrix(rng, 128, 128)
	c := randomMatrix(rng, 128, 128)
	dst := NewMatrix(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, c)
	}
}
