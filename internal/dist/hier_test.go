package dist

import (
	"math"
	"testing"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/nn"
)

// TestSingleRankHierarchicalParity: a 1-rank trainer on the hierarchical
// topology is still bit-identical to
// single-process model.DLRM training — the degenerate collectives are
// no-ops, so the topology cannot leak into the math.
func TestSingleRankHierarchicalParity(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)

	tr, err := NewTrainer(Options{
		Ranks: 1,
		Model: cfg,
		Net:   netmodel.PaperHierarchical(4),
	})
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
	for i := 0; i < 10; i++ {
		b := genD.NextBatch(32)
		lossD, err := tr.Step(b)
		if err != nil {
			t.Fatal(err)
		}
		bs := genS.NextBatch(32)
		lossS := ref.TrainStep(bs.Dense, bs.Indices, bs.Labels, opt, DefaultEmbLR)
		if lossD != lossS {
			t.Fatalf("step %d: hierarchical 1-rank loss %v != single-process loss %v", i, lossD, lossS)
		}
	}
	eb := genD.NextBatch(256)
	accD, llD := tr.Evaluate(eb)
	accS, llS := ref.Evaluate(eb.Dense, eb.Indices, eb.Labels)
	if accD != accS || llD != llS {
		t.Fatalf("eval mismatch: hierarchical (%v, %v) vs single (%v, %v)", accD, llD, accS, llS)
	}
}

// TestHierarchicalLossParityWithFlat: the topology only changes the
// simulated clock, never the numerics — a multi-node run must produce
// bit-identical losses to the flat run,
// with and without compression.
func TestHierarchicalLossParityWithFlat(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	for _, compressed := range []bool{false, true} {
		run := func(net netmodel.Topology) []float32 {
			o := Options{Ranks: 4, Model: cfg, Net: net}
			if compressed {
				o.CodecFor = func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) }
			}
			tr, err := NewTrainer(o)
			if err != nil {
				t.Fatal(err)
			}
			gen := criteo.NewGenerator(spec)
			var losses []float32
			for i := 0; i < 6; i++ {
				loss, err := tr.Step(gen.NextBatch(32))
				if err != nil {
					t.Fatal(err)
				}
				losses = append(losses, loss)
			}
			return losses
		}
		flat := run(netmodel.Slingshot10())
		hier := run(netmodel.PaperHierarchical(2))
		for i := range flat {
			if flat[i] != hier[i] {
				t.Fatalf("compressed=%v step %d: flat loss %v != hierarchical loss %v",
					compressed, i, flat[i], hier[i])
			}
		}
	}
}

// TestHierarchicalSimTimeBuckets: under a multi-node topology the embedding
// all-to-alls charge the per-link buckets and leave the flat labels empty,
// while every other bucket stays intact.
func TestHierarchicalSimTimeBuckets(t *testing.T) {
	spec := testSpec()
	tr, err := NewTrainer(Options{
		Ranks:              4,
		Model:              testConfig(spec, 8),
		Net:                netmodel.PaperHierarchical(2),
		OtherComputeFactor: 0.8,
		CodecFor:           func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) },
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := criteo.NewGenerator(spec)
	if _, err := tr.Step(gen.NextBatch(32)); err != nil {
		t.Fatal(err)
	}
	times := tr.Cluster().SimTimes()
	for _, label := range []string{
		"fwd-a2a-intra", "fwd-a2a-inter", "bwd-a2a-intra", "bwd-a2a-inter",
		"allreduce", "mlp", "lookup", "other", "compress", "decompress",
	} {
		if times[label] <= 0 {
			t.Fatalf("bucket %q not charged: %v", label, times)
		}
	}
	for _, label := range []string{"fwd-a2a", "bwd-a2a"} {
		if times[label] != 0 {
			t.Fatalf("flat bucket %q charged under hierarchy: %v", label, times)
		}
	}
	if tr.Cluster().Nodes() != 2 {
		t.Fatalf("cluster spans %d nodes, want 2", tr.Cluster().Nodes())
	}
}

// TestZeroNetworkMeansDefault: the pre-Topology API documented
// Net: netmodel.Network{} as "use Slingshot10()"; that contract survives
// the interface change — a zero-value Network must not run at zero
// bandwidth (which would overflow the sim clock), it selects the default.
func TestZeroNetworkMeansDefault(t *testing.T) {
	spec := testSpec()
	tr, err := NewTrainer(Options{Ranks: 2, Model: testConfig(spec, 4), Net: netmodel.Network{}})
	if err != nil {
		t.Fatal(err)
	}
	gen := criteo.NewGenerator(spec)
	if _, err := tr.Step(gen.NextBatch(16)); err != nil {
		t.Fatal(err)
	}
	if d := tr.Cluster().SimTime("fwd-a2a"); d <= 0 {
		t.Fatalf("zero-value Network ran at zero bandwidth: fwd-a2a = %v", d)
	}
}

// TestHierarchicalConvergence: training on the hierarchical topology still
// learns.
func TestHierarchicalConvergence(t *testing.T) {
	spec := testSpec()
	tr, err := NewTrainer(Options{
		Ranks: 4,
		Model: testConfig(spec, 8),
		Net:   netmodel.PaperHierarchical(2),
	})
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
