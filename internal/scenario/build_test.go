package scenario

import (
	"reflect"
	"testing"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/profileutil"
)

// tinySpec is a scenario small enough for unit tests.
func tinySpec() Spec {
	return Spec{
		Dataset: "kaggle", Scale: 8000, Dim: 8, Ranks: 4, Batch: 64, Steps: 3,
		BottomMLP: []int{16, 8}, TopMLP: []int{16, 8},
	}
}

// TestBuildMatchesHandConstruction is the refactor's keystone: a Spec run
// through Build must reproduce, bit for bit, what the call sites used to
// assemble by hand (generator, model config, topology, codec wiring).
func TestBuildMatchesHandConstruction(t *testing.T) {
	sp := tinySpec()
	sp.Codec, sp.ErrorBound = "hybrid", 0.02

	// The hand-rolled construction path, as cmd/dlrmtrain wrote it.
	data := criteo.ScaledSpec(criteo.KaggleSpec(), 8000)
	gen := criteo.NewGenerator(data)
	tr, err := dist.NewTrainer(dist.Options{
		Ranks: 4,
		Model: model.Config{
			DenseFeatures:     data.DenseFeatures,
			EmbeddingDim:      8,
			TableSizes:        data.Cardinalities,
			InitCardinalities: data.FullCardinalities,
			BottomMLP:         []int{16, 8},
			TopMLP:            []int{16, 8},
			Seed:              data.Seed,
		},
		Net:      netmodel.Slingshot10(),
		CodecFor: func(int) codec.Codec { return hybrid.New(0.02, hybrid.Auto) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantLosses []float32
	for i := 0; i < 3; i++ {
		loss, err := tr.Step(gen.NextBatch(64))
		if err != nil {
			t.Fatal(err)
		}
		wantLosses = append(wantLosses, loss)
	}

	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Losses, wantLosses) {
		t.Fatalf("scenario losses diverge from hand construction:\ngot  %v\nwant %v", res.Losses, wantLosses)
	}
	if got, want := res.CompressionRatio, tr.CompressionRatio(); got != want {
		t.Fatalf("CR %v != hand-built %v", got, want)
	}
	if want := profileutil.Breakdown(tr.Cluster().SimTimes()); !reflect.DeepEqual(res.SimTime, want) {
		t.Fatalf("sim-time buckets diverge:\ngot  %v\nwant %v", res.SimTime, want)
	}
}

func TestBuildHierTopology(t *testing.T) {
	sp := tinySpec()
	sp.Ranks, sp.Batch = 8, 64
	sp.Topology, sp.RanksPerNode = "hier", 4
	b, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Net.Name() != "hierarchical" || b.Net.Nodes(8) != 2 {
		t.Fatalf("topology %s across %d nodes, want hierarchical across 2", b.Net.Name(), b.Net.Nodes(8))
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 3 {
		t.Fatalf("got %d losses, want 3", len(res.Losses))
	}
	if res.SimTime["fwd-a2a-intra"] == 0 || res.SimTime["fwd-a2a-inter"] == 0 {
		t.Fatalf("hier run should charge split a2a buckets, got %v", res.SimTime)
	}
}

func TestBuildAdaptiveOffline(t *testing.T) {
	sp := tinySpec()
	sp.Codec = "hybrid"
	sp.Adaptive = true
	sp.Eval = 128
	b, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Offline == nil {
		t.Fatal("offline classification did not run")
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Offline == nil {
		t.Fatal("result lacks offline counts")
	}
	if n := res.Offline.L + res.Offline.M + res.Offline.S; n != len(criteo.KaggleCardinalities) {
		t.Fatalf("class counts sum to %d, want %d", n, len(criteo.KaggleCardinalities))
	}
	if res.CompressionRatio <= 1 {
		t.Fatalf("adaptive hybrid run should compress, CR %v", res.CompressionRatio)
	}
}

// TestBuildEnvDeterministic: the probe env is a pure function of the Spec.
func TestBuildEnvDeterministic(t *testing.T) {
	sp := tinySpec()
	sp.WarmSteps = 5
	e1, err := sp.BuildEnv()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := sp.BuildEnv()
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := e1.SampleLookups(32)
	s2, _ := e2.SampleLookups(32)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("warmed probe envs diverge for the same spec")
	}
}

func TestBuildRejectsInvalidSpec(t *testing.T) {
	sp := tinySpec()
	sp.Ranks, sp.Nodes, sp.Topology = 8, 8, "hier" // 8 != 8×4
	if _, err := sp.Build(); err == nil {
		t.Fatal("inconsistent cluster shape must not build")
	}
}

// TestCodecMenu holds every menu name to a run: it validates (with an error
// bound exactly when its codec is error-bounded), builds, and sends the
// forward all-to-all through its codec, and the codec's Name has a paper
// rate, so no menu codec is priced at the trainer's default rate.
func TestCodecMenu(t *testing.T) {
	rates := netmodel.PaperCodecRates()
	for _, name := range CodecNames() {
		sp := tinySpec()
		sp.Codec, sp.Steps = name, 1
		if errorBounded(name) {
			sp.ErrorBound = 0.02
		}
		res, err := Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if compressed := res.CompressionRatio != 1; compressed != (name != "none") {
			t.Fatalf("%s: compression ratio %v after a step", name, res.CompressionRatio)
		}
		if c := codecMenu[name](0.02); c != nil {
			if _, ok := rates[c.Name()]; !ok {
				t.Errorf("%s: codec %q has no paper rate", name, c.Name())
			}
		}
	}
	for name, want := range map[string]bool{"hybrid": true, "cusz": true, "fp8": false, "lz4": false, "none": false, "zstd": false} {
		if errorBounded(name) != want {
			t.Errorf("errorBounded(%q) = %v, want %v", name, !want, want)
		}
	}
}
