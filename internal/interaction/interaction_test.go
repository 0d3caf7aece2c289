package interaction

import (
	"math"
	"testing"

	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

func TestOutDim(t *testing.T) {
	di := NewDotInteraction(26, 16)
	// F = 27 features -> 27*26/2 = 351 pairs + 16 dense
	if di.OutDim() != 16+351 {
		t.Fatalf("OutDim = %d", di.OutDim())
	}
}

func TestForwardValues(t *testing.T) {
	di := NewDotInteraction(2, 2)
	dense := testutil.FromSlice(1, 2, []float32{1, 2})
	s1 := testutil.FromSlice(1, 2, []float32{3, 4})
	s2 := testutil.FromSlice(1, 2, []float32{5, 6})
	out := di.Forward(dense, []*tensor.Matrix{s1, s2})
	// layout: [dense(2) | <s1,dense> | <s2,dense> | <s2,s1>]
	want := []float32{1, 2, 1*3 + 2*4, 1*5 + 2*6, 3*5 + 4*6}
	if out.Cols != len(want) {
		t.Fatalf("cols = %d, want %d", out.Cols, len(want))
	}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

// numeric gradient check of Backward via central differences.
func TestBackwardGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(5)
	const n, dim, numSparse = 3, 4, 3
	di := NewDotInteraction(numSparse, dim)
	dense := tensor.NewMatrix(n, dim)
	rng.FillNormal(dense.Data, 0, 1)
	sparse := make([]*tensor.Matrix, numSparse)
	for t2 := range sparse {
		sparse[t2] = tensor.NewMatrix(n, dim)
		rng.FillNormal(sparse[t2].Data, 0, 1)
	}
	// Random upstream gradient; scalar loss = sum(dOut * out).
	dOut := tensor.NewMatrix(n, di.OutDim())
	rng.FillNormal(dOut.Data, 0, 1)

	loss := func() float64 {
		out := di.Forward(dense, sparse)
		var s float64
		for i, v := range out.Data {
			s += float64(v) * float64(dOut.Data[i])
		}
		return s
	}

	di.Forward(dense, sparse)
	dDense, dSparse := di.Backward(dOut)

	const h = 1e-3
	check := func(x *tensor.Matrix, g *tensor.Matrix, name string) {
		for i := range x.Data {
			orig := x.Data[i]
			x.Data[i] = orig + h
			lp := loss()
			x.Data[i] = orig - h
			lm := loss()
			x.Data[i] = orig
			numeric := (lp - lm) / (2 * h)
			if math.Abs(numeric-float64(g.Data[i])) > 1e-2*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", name, i, g.Data[i], numeric)
			}
		}
	}
	check(dense, dDense, "dense")
	for t2 := range sparse {
		check(sparse[t2], dSparse[t2], "sparse")
	}
}

func TestForwardShapePanics(t *testing.T) {
	di := NewDotInteraction(2, 4)
	dense := tensor.NewMatrix(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic with wrong sparse count")
		}
	}()
	di.Forward(dense, []*tensor.Matrix{tensor.NewMatrix(2, 4)})
}

func TestInteractionSymmetry(t *testing.T) {
	// Identical embedding vectors must yield identical interaction rows.
	di := NewDotInteraction(2, 3)
	dense := testutil.FromSlice(2, 3, []float32{1, 2, 3, 1, 2, 3})
	s1 := testutil.FromSlice(2, 3, []float32{4, 5, 6, 4, 5, 6})
	s2 := testutil.FromSlice(2, 3, []float32{7, 8, 9, 7, 8, 9})
	out := di.Forward(dense, []*tensor.Matrix{s1, s2})
	for j := 0; j < out.Cols; j++ {
		if out.At(0, j) != out.At(1, j) {
			t.Fatal("identical inputs produced different interactions")
		}
	}
}
