package criteo

import (
	"math"
	"testing"

	"dlrmcomp/internal/tensor"
)

func TestZipfRangeAndSkew(t *testing.T) {
	rng := tensor.NewRNG(1)
	z := NewZipf(rng, 1.2, 1000)
	counts := make(map[uint64]int)
	n := 50000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("sample %d out of range", v)
		}
		counts[v]++
	}
	// Zipf: key 0 must be by far the hottest.
	if counts[0] < counts[1] {
		t.Fatalf("key 0 (%d) should outnumber key 1 (%d)", counts[0], counts[1])
	}
	if float64(counts[0])/float64(n) < 0.05 {
		t.Fatalf("head key too cold for skew 1.2: %d/%d", counts[0], n)
	}
	// The tail must still be exercised.
	if len(counts) < 50 {
		t.Fatalf("only %d distinct keys sampled", len(counts))
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Larger s concentrates more mass on key 0.
	headShare := func(s float64) float64 {
		rng := tensor.NewRNG(7)
		z := NewZipf(rng, s, 10000)
		hits := 0
		n := 20000
		for i := 0; i < n; i++ {
			if z.Next() == 0 {
				hits++
			}
		}
		return float64(hits) / float64(n)
	}
	if headShare(2.0) <= headShare(1.1) {
		t.Fatal("higher skew should concentrate on the head key")
	}
}

func TestZipfSingletonTable(t *testing.T) {
	rng := tensor.NewRNG(2)
	z := NewZipf(rng, 1.5, 1)
	for i := 0; i < 10; i++ {
		if z.Next() != 0 {
			t.Fatal("cardinality-1 table must always return 0")
		}
	}
}

func TestZipfMatchesPowerLaw(t *testing.T) {
	// Empirical frequency ratio f(0)/f(4) should be near (5/1)^s for
	// an effectively unbounded table.
	rng := tensor.NewRNG(3)
	s := 1.5
	z := NewZipf(rng, s, 1<<30)
	counts := make([]int, 8)
	n := 400000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 8 {
			counts[v]++
		}
	}
	got := float64(counts[0]) / float64(counts[4])
	want := math.Pow(5.0/1.0, s)
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("f(0)/f(4) = %.2f, want ≈ %.2f", got, want)
	}
}

func TestGeneratorShapes(t *testing.T) {
	g := NewGenerator(ScaledSpec(KaggleSpec(), 1000))
	b := g.NextBatch(64)
	if b.N() != 64 {
		t.Fatalf("N = %d", b.N())
	}
	if b.Dense.Rows != 64 || b.Dense.Cols != 13 {
		t.Fatalf("dense shape %dx%d", b.Dense.Rows, b.Dense.Cols)
	}
	if len(b.Indices) != 26 {
		t.Fatalf("tables %d", len(b.Indices))
	}
	for ti, idx := range b.Indices {
		if len(idx) != 64 {
			t.Fatalf("table %d has %d indices", ti, len(idx))
		}
		card := int32(g.Spec.Cardinalities[ti])
		for _, v := range idx {
			if v < 0 || v >= card {
				t.Fatalf("table %d index %d out of range %d", ti, v, card)
			}
		}
	}
	if len(b.Labels) != 64 {
		t.Fatalf("labels %d", len(b.Labels))
	}
	for _, y := range b.Labels {
		if y != 0 && y != 1 {
			t.Fatalf("non-binary label %v", y)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	spec := ScaledSpec(KaggleSpec(), 1000)
	g1 := NewGenerator(spec)
	g2 := NewGenerator(spec)
	b1 := g1.NextBatch(32)
	b2 := g2.NextBatch(32)
	for i := range b1.Dense.Data {
		if b1.Dense.Data[i] != b2.Dense.Data[i] {
			t.Fatal("dense features differ across identical generators")
		}
	}
	for ti := range b1.Indices {
		for i := range b1.Indices[ti] {
			if b1.Indices[ti][i] != b2.Indices[ti][i] {
				t.Fatal("indices differ across identical generators")
			}
		}
	}
}

func TestGeneratorCTRReasonable(t *testing.T) {
	g := NewGenerator(ScaledSpec(TerabyteSpec(), 10000))
	var ctr float64
	for _, y := range g.NextBatch(5000).Labels {
		ctr += float64(y) / 5000
	}
	if ctr < 0.1 || ctr > 0.6 {
		t.Fatalf("base CTR %v outside plausible click-log range", ctr)
	}
}

func TestGeneratorLabelsHaveSignal(t *testing.T) {
	// Labels must correlate with the planted dense weights: the
	// dot-product of dense features with denseW should be larger on
	// positive samples on average.
	g := NewGenerator(ScaledSpec(KaggleSpec(), 1000))
	b := g.NextBatch(4000)
	var posSum, negSum float64
	var pos, neg int
	for i := 0; i < b.N(); i++ {
		score := float64(tensor.Dot(g.denseW, b.Dense.Row(i)))
		if b.Labels[i] == 1 {
			posSum += score
			pos++
		} else {
			negSum += score
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatal("degenerate label distribution")
	}
	if posSum/float64(pos) <= negSum/float64(neg) {
		t.Fatal("labels carry no signal from dense features")
	}
}

func TestScaledSpec(t *testing.T) {
	s := ScaledSpec(KaggleSpec(), 1000)
	if s.Cardinalities[2] != KaggleCardinalities[2]/1000 {
		t.Fatal("scaling broken")
	}
	for _, c := range s.Cardinalities {
		if c < 1 {
			t.Fatal("scaled cardinality below 1")
		}
	}
	if ScaledSpec(KaggleSpec(), 1).Cardinalities[0] != KaggleCardinalities[0] {
		t.Fatal("factor 1 must be identity")
	}
}

func TestSpecsMatchPaper(t *testing.T) {
	k, tb := KaggleSpec(), TerabyteSpec()
	if len(k.Cardinalities) != 26 || len(tb.Cardinalities) != 26 {
		t.Fatal("both datasets have 26 categorical features")
	}
	if k.DenseFeatures != 13 || tb.DenseFeatures != 13 {
		t.Fatal("both datasets have 13 dense features")
	}
	if k.DefaultBatch != 128 || tb.DefaultBatch != 2048 {
		t.Fatal("paper batch sizes: kaggle 128, terabyte 2048")
	}
}

func TestUnbalancedQueries(t *testing.T) {
	// Verify the "unbalanced queries" phenomenon: within a batch, far
	// fewer unique keys than samples for high-cardinality tables.
	g := NewGenerator(KaggleSpec())
	b := g.NextBatch(2048)
	uniq := make(map[int32]bool)
	for _, v := range b.Indices[2] { // cardinality 10M table
		uniq[v] = true
	}
	if len(uniq) >= 2048 {
		t.Fatal("expected repeated keys under Zipf skew")
	}
}
