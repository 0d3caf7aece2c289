package dist

import (
	"math"
	"testing"

	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/nn"
)

// testSpec is a tiny scaled Kaggle-like dataset for fast trainer tests.
func testSpec() criteo.Spec { return criteo.ScaledSpec(criteo.KaggleSpec(), 100000) }

func testConfig(spec criteo.Spec, dim int) model.Config {
	return model.Config{
		DenseFeatures:     spec.DenseFeatures,
		EmbeddingDim:      dim,
		TableSizes:        spec.Cardinalities,
		InitCardinalities: spec.FullCardinalities,
		BottomMLP:         []int{16},
		TopMLP:            []int{16},
		Seed:              spec.Seed,
	}
}

// TestSingleRankParity checks that a 1-rank uncompressed distributed step is
// numerically identical to single-process model.DLRM training on the same
// generator stream: same losses every step, same evaluation afterwards.
func TestSingleRankParity(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)

	tr, err := NewTrainer(Options{Ranks: 1, Model: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := &nn.SGD{LR: DefaultDenseLR}

	genD := criteo.NewGenerator(spec)
	genS := criteo.NewGenerator(spec)
	for i := 0; i < 15; i++ {
		b := genD.NextBatch(32)
		lossD, err := tr.Step(b)
		if err != nil {
			t.Fatal(err)
		}
		bs := genS.NextBatch(32)
		lossS := ref.TrainStep(bs.Dense, bs.Indices, bs.Labels, opt, DefaultEmbLR)
		if d := math.Abs(float64(lossD - lossS)); d > 1e-7 {
			t.Fatalf("step %d: distributed loss %v != single-process loss %v (diff %g)", i, lossD, lossS, d)
		}
	}

	eb := genD.NextBatch(256)
	accD, llD := tr.Evaluate(eb)
	accS, llS := ref.Evaluate(eb.Dense, eb.Indices, eb.Labels)
	if accD != accS || math.Abs(llD-llS) > 1e-9 {
		t.Fatalf("eval mismatch: distributed (%v, %v) vs single (%v, %v)", accD, llD, accS, llS)
	}
	if tr.CompressionRatio() != 1 {
		t.Fatalf("uncompressed trainer reports ratio %v", tr.CompressionRatio())
	}
}

// TestMultiRankTrainingConverges checks that the sharded trainer actually
// learns: the loss over the last steps must be below the first steps.
func TestMultiRankTrainingConverges(t *testing.T) {
	spec := testSpec()
	tr, err := NewTrainer(Options{Ranks: 4, Model: testConfig(spec, 8)})
	if err != nil {
		t.Fatal(err)
	}
	gen := criteo.NewGenerator(spec)
	var first, last float64
	const steps = 40
	for i := 0; i < steps; i++ {
		loss, err := tr.Step(gen.NextBatch(64))
		if err != nil {
			t.Fatal(err)
		}
		if i < 5 {
			first += float64(loss) / 5
		}
		if i >= steps-5 {
			last += float64(loss) / 5
		}
	}
	if !(last < first) {
		t.Fatalf("loss did not decrease: first-5 mean %v, last-5 mean %v", first, last)
	}
	acc, logloss := tr.Evaluate(gen.NextBatch(512))
	if acc <= 0 || acc > 1 || math.IsNaN(logloss) {
		t.Fatalf("bad eval: acc %v logloss %v", acc, logloss)
	}
}

// TestUnevenAndTinyBatches covers shards of unequal size and ranks that
// receive no samples at all.
func TestUnevenAndTinyBatches(t *testing.T) {
	spec := testSpec()
	tr, err := NewTrainer(Options{Ranks: 4, Model: testConfig(spec, 4)})
	if err != nil {
		t.Fatal(err)
	}
	gen := criteo.NewGenerator(spec)
	for _, n := range []int{10, 7, 2, 1} {
		loss, err := tr.Step(gen.NextBatch(n))
		if err != nil {
			t.Fatalf("batch %d: %v", n, err)
		}
		if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
			t.Fatalf("batch %d: loss %v", n, loss)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 4)

	if _, err := NewTrainer(Options{Ranks: 0, Model: cfg}); err == nil {
		t.Fatal("zero ranks must fail")
	}
	if _, err := NewTrainer(Options{Ranks: 2}); err == nil {
		t.Fatal("invalid model config must fail")
	}

	ctrl, err := adapt.NewController([]adapt.Class{adapt.ClassMedium}, adapt.PaperEBConfig(), adapt.ScheduleNone, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrainer(Options{Ranks: 2, Model: cfg, Controller: ctrl}); err == nil {
		t.Fatal("controller without codecs must fail")
	}
	mkCodec := func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) }
	if _, err := NewTrainer(Options{Ranks: 2, Model: cfg, Controller: ctrl, CodecFor: mkCodec}); err == nil {
		t.Fatal("controller/table count mismatch must fail")
	}

	tr, err := NewTrainer(Options{Ranks: 2, Model: cfg})
	if err != nil {
		t.Fatal(err)
	}
	bad := criteo.NewGenerator(spec).NextBatch(8)
	bad.Indices = bad.Indices[:3]
	if _, err := tr.Step(bad); err == nil {
		t.Fatal("malformed batch must fail")
	}
}

// shardBounds is the allocating form of shardBoundsInto.
func shardBounds(n, ranks int) (start, count []int) {
	start = make([]int, ranks)
	count = make([]int, ranks)
	shardBoundsInto(n, start, count)
	return start, count
}

func TestShardBounds(t *testing.T) {
	start, count := shardBounds(10, 4)
	wantStart, wantCount := []int{0, 3, 6, 8}, []int{3, 3, 2, 2}
	for r := range start {
		if start[r] != wantStart[r] || count[r] != wantCount[r] {
			t.Fatalf("shard %d: got (%d,%d) want (%d,%d)", r, start[r], count[r], wantStart[r], wantCount[r])
		}
	}
}
