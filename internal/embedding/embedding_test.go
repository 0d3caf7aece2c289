package embedding

import (
	"math"
	"testing"

	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

func TestLookupGathersRows(t *testing.T) {
	rng := tensor.NewRNG(1)
	tab := NewTableWithInitScale(0, 10, 4, 10, rng)
	idx := []int32{3, 3, 7, 0}
	out := tab.Lookup(idx)
	if out.Rows != 4 || out.Cols != 4 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
	for i, id := range idx {
		for j := 0; j < 4; j++ {
			if out.At(i, j) != tab.Weights.At(int(id), j) {
				t.Fatalf("row %d mismatch", i)
			}
		}
	}
	// Duplicate indices must produce identical rows.
	for j := 0; j < 4; j++ {
		if out.At(0, j) != out.At(1, j) {
			t.Fatal("duplicate index rows differ")
		}
	}
}

func TestLookupOutOfRangePanics(t *testing.T) {
	rng := tensor.NewRNG(2)
	tab := NewTableWithInitScale(0, 5, 2, 5, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	tab.Lookup([]int32{5})
}

func TestApplySGD(t *testing.T) {
	rng := tensor.NewRNG(3)
	tab := NewTableWithInitScale(0, 4, 2, 4, rng)
	before := tab.Weights.Clone()
	grad := testutil.FromSlice(2, 2, []float32{1, 2, 3, 4})
	tab.ApplySGD(SparseGrad{Indices: []int32{1, 3}, Grad: grad}, 0.1)
	wantRow1 := []float32{before.At(1, 0) - 0.1, before.At(1, 1) - 0.2}
	wantRow3 := []float32{before.At(3, 0) - 0.3, before.At(3, 1) - 0.4}
	for j := 0; j < 2; j++ {
		if math.Abs(float64(tab.Weights.At(1, j)-wantRow1[j])) > 1e-6 {
			t.Fatalf("row 1 col %d: %v want %v", j, tab.Weights.At(1, j), wantRow1[j])
		}
		if math.Abs(float64(tab.Weights.At(3, j)-wantRow3[j])) > 1e-6 {
			t.Fatalf("row 3 col %d", j)
		}
	}
	// Untouched rows unchanged.
	for j := 0; j < 2; j++ {
		if tab.Weights.At(0, j) != before.At(0, j) || tab.Weights.At(2, j) != before.At(2, j) {
			t.Fatal("untouched row modified")
		}
	}
}

func TestApplySGDDuplicateIndicesAccumulate(t *testing.T) {
	rng := tensor.NewRNG(4)
	tab := NewTableWithInitScale(0, 2, 1, 2, rng)
	w0 := tab.Weights.At(0, 0)
	grad := testutil.FromSlice(2, 1, []float32{1, 1})
	tab.ApplySGD(SparseGrad{Indices: []int32{0, 0}, Grad: grad}, 0.5)
	want := w0 - 0.5 - 0.5
	if math.Abs(float64(tab.Weights.At(0, 0)-want)) > 1e-6 {
		t.Fatalf("duplicate update = %v, want %v", tab.Weights.At(0, 0), want)
	}
}

func TestGroupLookupAll(t *testing.T) {
	rng := tensor.NewRNG(6)
	g := NewGroupWithInit([]int{10, 20, 30}, nil, 8, rng)
	if len(g.Tables) != 3 {
		t.Fatalf("group size %d", len(g.Tables))
	}
	idx := [][]int32{{1, 2}, {3, 4}, {5, 6}}
	outs := g.LookupAll(idx)
	if len(outs) != 3 {
		t.Fatalf("outputs %d", len(outs))
	}
	for ti, out := range outs {
		if out.Rows != 2 || out.Cols != 8 {
			t.Fatalf("table %d shape %dx%d", ti, out.Rows, out.Cols)
		}
	}
}

func TestInitScalesWithCardinality(t *testing.T) {
	rng := tensor.NewRNG(8)
	small := NewTableWithInitScale(0, 4, 16, 4, rng)
	large := NewTableWithInitScale(1, 1<<20, 16, 1<<20, rng)
	if testutil.MaxAbs(small.Weights.Data) <= testutil.MaxAbs(large.Weights.Data) {
		t.Fatal("larger tables should have smaller init range")
	}
	if testutil.MaxAbs(small.Weights.Data) > 0.5 {
		t.Fatal("init out of expected range")
	}
}
