package adapt

import (
	"math"
	"testing"

	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/tensor"
)

// batchOf builds a row-major batch from a vocabulary with given repeats.
func batchOf(rng *tensor.RNG, rows, dim, vocabSize int, std float32) []float32 {
	vocab := make([][]float32, vocabSize)
	for v := range vocab {
		vocab[v] = make([]float32, dim)
		rng.FillNormal(vocab[v], 0, std)
	}
	var src []float32
	for r := 0; r < rows; r++ {
		src = append(src, vocab[rng.Intn(vocabSize)]...)
	}
	return src
}

func TestAnalyzeTableCounts(t *testing.T) {
	// 4 distinct rows, two of which quantize to the same bins.
	dim := 2
	sample := []float32{
		1.0, 2.0,
		1.004, 2.004, // within eb 0.01 bin of row 0
		5.0, 6.0,
		9.0, 10.0,
	}
	st, err := AnalyzeTable(0, sample, dim, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if st.OrigUnique != 4 {
		t.Fatalf("orig unique = %d", st.OrigUnique)
	}
	if st.QuantUnique != 3 {
		t.Fatalf("quant unique = %d", st.QuantUnique)
	}
	if math.Abs(st.HomoIndex-0.25) > 1e-9 {
		t.Fatalf("homo index = %v, want 0.25", st.HomoIndex)
	}
	if math.Abs(st.PatternRatio-0.75) > 1e-9 {
		t.Fatalf("pattern ratio = %v, want 0.75", st.PatternRatio)
	}
}

func TestAnalyzeTableNoHomogenization(t *testing.T) {
	// Well-separated rows: quantization preserves all patterns (the
	// paper's tables with tabulated index 1).
	sample := []float32{0, 0, 10, 10, 20, 20, 30, 30}
	st, err := AnalyzeTable(1, sample, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if st.HomoIndex != 0 || st.PatternRatio != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAnalyzeTableErrors(t *testing.T) {
	if _, err := AnalyzeTable(0, nil, 4, 0.01); err == nil {
		t.Fatal("empty sample should error")
	}
	if _, err := AnalyzeTable(0, []float32{1, 2, 3}, 2, 0.01); err == nil {
		t.Fatal("bad shape should error")
	}
}

func TestClassify(t *testing.T) {
	th := DefaultThresholds()
	if Classify(0.0, th) != ClassLarge {
		t.Fatal("zero homogenization -> large EB")
	}
	if Classify(0.9, th) != ClassSmall {
		t.Fatal("heavy homogenization -> small EB")
	}
	if Classify(0.2, th) != ClassMedium {
		t.Fatal("middle -> medium EB")
	}
}

func TestThresholdsValidate(t *testing.T) {
	if (Thresholds{LHindex: 0.5, SHindex: 0.2}).Validate() == nil {
		t.Fatal("inverted thresholds should fail")
	}
	if DefaultThresholds().Validate() != nil {
		t.Fatal("defaults must validate")
	}
}

func TestEBConfig(t *testing.T) {
	cfg := PaperEBConfig()
	if cfg.For(ClassLarge) != 0.05 || cfg.For(ClassMedium) != 0.03 || cfg.For(ClassSmall) != 0.01 {
		t.Fatalf("paper config wrong: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := EBConfig{Large: 0.01, Medium: 0.03, Small: 0.05}
	if bad.Validate() == nil {
		t.Fatal("inverted config should fail")
	}
}

func TestClassStrings(t *testing.T) {
	if ClassLarge.String() != "L" || ClassMedium.String() != "M" || ClassSmall.String() != "S" {
		t.Fatal("class strings wrong")
	}
}

func TestDecayFactorBounds(t *testing.T) {
	for _, s := range []Schedule{ScheduleStepwise, ScheduleLogarithmic, ScheduleLinear, ScheduleExponential, ScheduleDrop} {
		for iter := 0; iter < 200; iter++ {
			f := DecayFactor(s, iter, 100, 2)
			if f < 1 || f > 2+1e-9 {
				t.Fatalf("%v iter %d: factor %v out of [1,2]", s, iter, f)
			}
			if iter >= 100 && f != 1 {
				t.Fatalf("%v: factor must be 1 after the phase, got %v", s, f)
			}
		}
	}
}

func TestDecayFactorStartsHigh(t *testing.T) {
	for _, s := range []Schedule{ScheduleStepwise, ScheduleLogarithmic, ScheduleLinear, ScheduleExponential, ScheduleDrop} {
		if f := DecayFactor(s, 0, 100, 3); math.Abs(f-3) > 1e-9 {
			t.Fatalf("%v: factor at iter 0 = %v, want 3", s, f)
		}
	}
}

func TestDecayMonotone(t *testing.T) {
	for _, s := range []Schedule{ScheduleStepwise, ScheduleLogarithmic, ScheduleLinear, ScheduleExponential} {
		prev := math.Inf(1)
		for iter := 0; iter <= 100; iter++ {
			f := DecayFactor(s, iter, 100, 2)
			if f > prev+1e-9 {
				t.Fatalf("%v: factor increased at iter %d", s, iter)
			}
			prev = f
		}
	}
}

func TestDropHoldsThenDrops(t *testing.T) {
	if DecayFactor(ScheduleDrop, 99, 100, 2) != 2 {
		t.Fatal("drop must hold start factor during the phase")
	}
	if DecayFactor(ScheduleDrop, 100, 100, 2) != 1 {
		t.Fatal("drop must reach 1 after the phase")
	}
}

func TestStepwiseIsStaircase(t *testing.T) {
	// Distinct plateau values: exactly StepwiseSteps levels during phase.
	seen := make(map[float64]bool)
	for iter := 0; iter < 100; iter++ {
		seen[DecayFactor(ScheduleStepwise, iter, 100, 2)] = true
	}
	if len(seen) != StepwiseSteps {
		t.Fatalf("stepwise has %d levels, want %d", len(seen), StepwiseSteps)
	}
}

func TestScheduleNone(t *testing.T) {
	if DecayFactor(ScheduleNone, 0, 100, 5) != 1 {
		t.Fatal("none must always be 1")
	}
}

func TestScheduleStrings(t *testing.T) {
	names := map[Schedule]string{
		ScheduleNone: "none", ScheduleStepwise: "stepwise",
		ScheduleLogarithmic: "logarithmic", ScheduleLinear: "linear",
		ScheduleExponential: "exponential", ScheduleDrop: "drop",
	}
	for s, w := range names {
		if s.String() != w {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

func TestController(t *testing.T) {
	classes := []Class{ClassLarge, ClassMedium, ClassSmall}
	ctrl, err := NewController(classes, PaperEBConfig(), ScheduleStepwise, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.NumTables() != 3 {
		t.Fatal("table count")
	}
	// At iteration 0 every bound is doubled.
	if eb := ctrl.EBAt(0, 0); math.Abs(float64(eb)-0.10) > 1e-6 {
		t.Fatalf("table 0 iter 0 eb = %v", eb)
	}
	// After the phase bounds equal the class values.
	if eb := ctrl.EBAt(2, 500); eb != 0.01 {
		t.Fatalf("table 2 late eb = %v", eb)
	}
	if _, err := NewController(classes, PaperEBConfig(), ScheduleStepwise, 100, 0.5); err == nil {
		t.Fatal("start factor < 1 should error")
	}
}

func TestOfflineAnalysisClassifiesBySkew(t *testing.T) {
	rng := tensor.NewRNG(1)
	dim := 8
	// Table 0: huge-cardinality-style — values so tightly packed that
	// quantization collapses most patterns -> small EB.
	dense := batchOf(rng, 128, dim, 100, 0.004)
	// Table 1: tiny-cardinality-style — few rows, widely separated ->
	// no homogenization -> large EB.
	sparse := batchOf(rng, 128, dim, 4, 2.0)
	res, err := OfflineAnalysis([][]float32{dense, sparse}, dim, OfflineOptions{SampleEB: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes[0] != ClassSmall {
		t.Fatalf("packed table classified %v (homo %v), want S",
			res.Classes[0], res.Stats[0].HomoIndex)
	}
	if res.Classes[1] != ClassLarge {
		t.Fatalf("separated table classified %v (homo %v), want L",
			res.Classes[1], res.Stats[1].HomoIndex)
	}
	if res.EBs[0] != 0.01 || res.EBs[1] != 0.05 {
		t.Fatalf("EBs = %v", res.EBs)
	}
	l, m, s := res.ClassCounts()
	if l != 1 || s != 1 || m != 0 {
		t.Fatalf("counts = %d/%d/%d", l, m, s)
	}
}

func TestOfflineAnalysisEncoderSelection(t *testing.T) {
	rng := tensor.NewRNG(2)
	dim := 16
	samples := [][]float32{
		batchOf(rng, 256, dim, 8, 1.0),    // repeats -> vlz-friendly
		batchOf(rng, 256, dim, 256, 0.02), // unique, concentrated -> huffman
	}
	res, err := OfflineAnalysis(samples, dim, OfflineOptions{
		SampleEB:       0.01,
		SelectEncoders: true,
		NetBandwidth:   4e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range samples {
		if len(res.Candidates[ti]) != 2 {
			t.Fatalf("table %d: %d candidates", ti, len(res.Candidates[ti]))
		}
		if res.Modes[ti] != hybrid.VectorLZ && res.Modes[ti] != hybrid.Entropy {
			t.Fatalf("table %d: mode %v", ti, res.Modes[ti])
		}
	}
}

func TestRankedByHomoIndex(t *testing.T) {
	res := &OfflineResult{Stats: []PatternStats{
		{TableID: 0, PatternRatio: 1.0},
		{TableID: 1, PatternRatio: 0.6},
		{TableID: 2, PatternRatio: 0.8},
	}}
	ranked := res.RankedByHomoIndex()
	if ranked[0].TableID != 1 || ranked[1].TableID != 2 || ranked[2].TableID != 0 {
		t.Fatalf("ranking wrong: %+v", ranked)
	}
}
