package dlrmcomp

import "testing"

func TestFacadeCompressor(t *testing.T) {
	c := NewCompressor(0.01, ModeAuto)
	src := make([]float32, 64*16)
	for i := range src {
		src[i] = float32(i%7) * 0.1
	}
	frame, err := c.Compress(src, 16)
	if err != nil {
		t.Fatal(err)
	}
	recon, dim, err := c.Decompress(frame)
	if err != nil || dim != 16 {
		t.Fatalf("decompress: %v dim %d", err, dim)
	}
	for i := range src {
		d := recon[i] - src[i]
		if d > 0.0101 || d < -0.0101 {
			t.Fatalf("error bound violated at %d: %v", i, d)
		}
	}
}

func TestFacadeBaselines(t *testing.T) {
	src := make([]float32, 32*8)
	for i := range src {
		src[i] = float32(i) * 0.01
	}
	for _, c := range []Codec{
		NewFP16Codec(), NewFP8Codec(), NewCuSZLikeCodec(0.01),
		NewFZGPULikeCodec(0.01), NewLZ4LikeCodec(), NewDeflateCodec(),
	} {
		frame, err := c.CompressAppend(nil, src, 8)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if dim, err := c.DecompressInto(make([]float32, len(src)), frame); err != nil || dim != 8 {
			t.Fatalf("%s: dim %d, err %v", c.Name(), dim, err)
		}
	}
}

func TestFacadeOfflineAnalysisAndController(t *testing.T) {
	samples := [][]float32{
		{0.1, 0.1, 0.101, 0.101, 5, 5, 9, 9}, // homogenizing
		{0, 0, 10, 10, 20, 20, 30, 30},       // well separated
	}
	res, err := OfflineAnalysis(samples, 2, OfflineOptions{SampleEB: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(res.Classes, PaperEBConfig(), ScheduleStepwise, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.NumTables() != 2 {
		t.Fatal("controller tables")
	}
	if ctrl.EBAt(0, 1000) <= 0 {
		t.Fatal("EB must be positive")
	}
}

func TestFacadeTrainer(t *testing.T) {
	spec := ScaledSpec(KaggleSpec(), 100000)
	gen := NewGenerator(spec)
	tr, err := NewTrainer(TrainerOptions{
		Ranks: 2,
		Model: ModelConfig{
			DenseFeatures: 13, EmbeddingDim: 8,
			TableSizes: spec.Cardinalities,
			BottomMLP:  []int{16}, TopMLP: []int{16},
		},
		CodecFor: func(int) Codec { return NewCompressor(0.01, ModeAuto) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(gen.NextBatch(32)); err != nil {
		t.Fatal(err)
	}
	if tr.CompressionRatio() <= 0 {
		t.Fatal("compression ratio not recorded")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 18 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	res, err := RunExperiment("fig6", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Text == "" {
		t.Fatal("empty result")
	}
}

func TestSpeedupModel(t *testing.T) {
	if s := Speedup(10, 4e9, 1e18, 1e18); s < 9.9 || s > 10.1 {
		t.Fatalf("speedup %v", s)
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Auto-tune over a synthetic monotone loss curve.
	res, err := AutoTuneGlobalEB([]float32{0.01, 0.05}, 0.1,
		func(eb float32) (float64, error) { return float64(eb), nil })
	if err != nil || res.BestEB != 0.05 {
		t.Fatalf("autotune: %v %+v", err, res)
	}
}
