package model

import (
	"math"
	"testing"

	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/nn"
	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

func smallConfig() Config {
	return Config{
		DenseFeatures: 13,
		EmbeddingDim:  8,
		TableSizes:    []int{50, 100, 20, 7},
		BottomMLP:     []int{32, 16},
		TopMLP:        []int{32},
		Seed:          42,
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := smallConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.TableSizes = nil
	if bad.Validate() == nil {
		t.Fatal("empty tables should fail validation")
	}
	bad = cfg
	bad.EmbeddingDim = 0
	if bad.Validate() == nil {
		t.Fatal("zero dim should fail validation")
	}
	bad = cfg
	bad.TableSizes = []int{10, -1}
	if bad.Validate() == nil {
		t.Fatal("negative cardinality should fail validation")
	}
}

func TestForwardShape(t *testing.T) {
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 16
	dense := tensor.NewMatrix(n, 13)
	rng := tensor.NewRNG(1)
	rng.FillNormal(dense.Data, 0, 1)
	indices := [][]int32{make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)}
	logits := m.Forward(dense, indices)
	if logits.Rows != n || logits.Cols != 1 {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
}

func TestTrainStepReducesLoss(t *testing.T) {
	cfg := smallConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := criteo.Spec{
		Name: "tiny", DenseFeatures: 13,
		Cardinalities: []int{50, 100, 20, 7},
		ZipfS:         1.3, DefaultBatch: 64, Seed: 3,
	}
	gen := criteo.NewGenerator(spec)
	opt := &nn.SGD{LR: 0.05}

	var first, last float32
	for step := 0; step < 120; step++ {
		b := gen.NextBatch(64)
		loss := m.TrainStep(b.Dense, b.Indices, b.Labels, opt, 0.05)
		if step == 0 {
			first = loss
		}
		last = loss
		if math.IsNaN(float64(loss)) {
			t.Fatalf("NaN loss at step %d", step)
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v last %v", first, last)
	}
}

func TestEvaluateBeatsChanceAfterTraining(t *testing.T) {
	cfg := smallConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := criteo.Spec{
		Name: "tiny", DenseFeatures: 13,
		Cardinalities: []int{50, 100, 20, 7},
		ZipfS:         1.3, DefaultBatch: 64, Seed: 5,
	}
	gen := criteo.NewGenerator(spec)
	opt := &nn.SGD{LR: 0.05}
	for step := 0; step < 200; step++ {
		b := gen.NextBatch(64)
		m.TrainStep(b.Dense, b.Indices, b.Labels, opt, 0.05)
	}
	eval := gen.NextBatch(2000)
	acc, logloss := m.Evaluate(eval.Dense, eval.Indices, eval.Labels)
	// Base rate is well below majority-class-only prediction ceiling; the
	// trained model should at least beat random 50% and produce finite loss.
	if acc < 0.55 {
		t.Fatalf("accuracy %v too low after training", acc)
	}
	if math.IsNaN(logloss) || logloss > 1.0 {
		t.Fatalf("bad logloss %v", logloss)
	}
}

func TestForwardFromLookupsMatchesForward(t *testing.T) {
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 8
	rng := tensor.NewRNG(9)
	dense := tensor.NewMatrix(n, 13)
	rng.FillNormal(dense.Data, 0, 1)
	indices := make([][]int32, 4)
	for ti, card := range []int{50, 100, 20, 7} {
		indices[ti] = make([]int32, n)
		for i := range indices[ti] {
			indices[ti][i] = int32(rng.Intn(card))
		}
	}
	// Clone: Forward returns model-owned scratch that the second forward
	// would otherwise overwrite (and trivially equal).
	l1 := m.Forward(dense, indices).Clone()
	lookups := m.Emb.LookupAll(indices)
	l2 := m.ForwardFromLookups(dense, lookups)
	if testutil.MaxError(l1.Data, l2.Data) > 1e-6 {
		t.Fatal("ForwardFromLookups disagrees with Forward")
	}
}

func TestBackwardReturnsLookupGrads(t *testing.T) {
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 8
	rng := tensor.NewRNG(10)
	dense := tensor.NewMatrix(n, 13)
	rng.FillNormal(dense.Data, 0, 1)
	indices := make([][]int32, 4)
	for ti, card := range []int{50, 100, 20, 7} {
		indices[ti] = make([]int32, n)
		for i := range indices[ti] {
			indices[ti][i] = int32(rng.Intn(card))
		}
	}
	labels := make([]float32, n)
	labels[0], labels[3] = 1, 1
	m.ZeroGrad()
	logits := m.Forward(dense, indices)
	_, dLogits := nn.BCEWithLogits(logits, labels)
	dLookups := m.Backward(dLogits)
	if len(dLookups) != 4 {
		t.Fatalf("lookup grads %d, want 4", len(dLookups))
	}
	var nonzero bool
	for ti, g := range dLookups {
		if g.Rows != n || g.Cols != 8 {
			t.Fatalf("grad %d shape %dx%d", ti, g.Rows, g.Cols)
		}
		if testutil.MaxAbs(g.Data) > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("all lookup gradients are zero")
	}
}
