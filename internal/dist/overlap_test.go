package dist

import (
	"math"
	"testing"
	"time"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/nn"
)

// paperishOptions builds trainer options at a scale where both comm and
// compute are nontrivial, so the overlap schedule has something to hide.
func paperishOptions(ranks int, hier, compressed bool) Options {
	spec := testSpec()
	o := Options{
		Ranks:              ranks,
		Model:              testConfig(spec, 16),
		Device:             netmodel.Device{FLOPS: 3e12, MemBandwidth: 1.3e12},
		OtherComputeFactor: 0.8,
	}
	if hier {
		o.Net = netmodel.PaperHierarchical(4)
	} else {
		o.Net = netmodel.Slingshot10()
	}
	if compressed {
		o.CodecFor = func(int) codec.Codec { return hybrid.New(0.02, hybrid.Auto) }
	}
	return o
}

// serial is the synchronous cost of one booked step: every component back
// to back.
func serial(s stepStats) time.Duration {
	return s.lookup + s.compress + s.fwd.Total() + s.decompress +
		s.mlp + s.other + s.bwd.Total() + s.allreduce
}

// bucketSum is the synchronous clock: the total of every sim-time bucket.
func bucketSum(tr *Trainer) time.Duration {
	var total time.Duration
	for _, d := range tr.Cluster().SimTimes() {
		total += d
	}
	return total
}

// TestPipelinedSingleRankBitParity checks the 1-rank overlapped clock is
// the degenerate no-op case: a Step loop stays bit-identical to
// single-process training AND the clock shows zero overlap benefit (no
// links, so the timeline is one serial device lane).
func TestPipelinedSingleRankBitParity(t *testing.T) {
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
	for i := 0; i < 12; i++ {
		lossD, err := tr.Step(genD.NextBatch(32))
		if err != nil {
			t.Fatal(err)
		}
		bs := genS.NextBatch(32)
		lossS := ref.TrainStep(bs.Dense, bs.Indices, bs.Labels, opt, DefaultEmbLR)
		if lossD != lossS {
			t.Fatalf("step %d: distributed loss %v != single-process loss %v", i, lossD, lossS)
		}
	}
	eb := genD.NextBatch(256)
	accD, llD := tr.Evaluate(eb)
	accS, llS := ref.Evaluate(eb.Dense, eb.Indices, eb.Labels)
	if accD != accS || math.Abs(llD-llS) > 1e-12 {
		t.Fatalf("eval mismatch: distributed (%v, %v) vs single (%v, %v)", accD, llD, accS, llS)
	}
	// One rank has no peers: nothing to overlap, so the overlapped clock
	// and the bucket sum must coincide exactly.
	if over, sum := tr.OverlappedSimTime(), bucketSum(tr); over != sum {
		t.Fatalf("1-rank overlap benefit: overlapped %v != bucket sum %v", over, sum)
	}
	if tr.OverlappedSimTime() <= 0 {
		t.Fatal("1-rank run modelled zero time")
	}
}

// TestOverlappedSimTimeReadIsPure pins the clock's read contract: reading
// OverlappedSimTime after every Step leaves the final value, the losses
// and the buckets exactly as one read at the end does. A read that booked
// the trailing compute on the live timeline would cold-start every next
// step and end later.
func TestOverlappedSimTimeReadIsPure(t *testing.T) {
	trR, err := NewTrainer(paperishOptions(8, true, true))
	if err != nil {
		t.Fatal(err)
	}
	trE, err := NewTrainer(paperishOptions(8, true, true))
	if err != nil {
		t.Fatal(err)
	}
	genR := criteo.NewGenerator(testSpec())
	genE := criteo.NewGenerator(testSpec())
	if trR.OverlappedSimTime() != 0 {
		t.Fatalf("fresh trainer's clock reads %v, want 0", trR.OverlappedSimTime())
	}
	prev := time.Duration(0)
	for i := 0; i < 6; i++ {
		lr, err := trR.Step(genR.NextBatch(64))
		if err != nil {
			t.Fatal(err)
		}
		le, err := trE.Step(genE.NextBatch(64))
		if err != nil {
			t.Fatal(err)
		}
		if lr != le {
			t.Fatalf("step %d: loss %v with reads != %v without", i, lr, le)
		}
		over := trR.OverlappedSimTime()
		if over <= prev || over != trR.OverlappedSimTime() {
			t.Fatalf("step %d: clock read %v after %v, or a second read differs", i, over, prev)
		}
		prev = over
	}
	if got, want := trR.OverlappedSimTime(), trE.OverlappedSimTime(); got != want {
		t.Fatalf("clock read after every step ends at %v, read once at %v", got, want)
	}
	r, e := trR.Cluster().SimTimes(), trE.Cluster().SimTimes()
	if len(r) != len(e) {
		t.Fatalf("bucket sets differ: %v vs %v", r, e)
	}
	for k, v := range e {
		if r[k] != v {
			t.Fatalf("bucket %q: %v with reads != %v without", k, r[k], v)
		}
	}
}

// TestPipelinedOverlapStrictlyFaster is the headline property: at 8+ ranks
// on the hierarchical topology, the overlapped clock of a Step loop must
// end strictly earlier than the bucket sum — with and without the codec.
func TestPipelinedOverlapStrictlyFaster(t *testing.T) {
	for _, ranks := range []int{8, 16} {
		for _, compressed := range []bool{false, true} {
			tr, err := NewTrainer(paperishOptions(ranks, true, compressed))
			if err != nil {
				t.Fatal(err)
			}
			gen := criteo.NewGenerator(testSpec())
			for i := 0; i < 4; i++ {
				if _, err := tr.Step(gen.NextBatch(128)); err != nil {
					t.Fatal(err)
				}
			}
			over, sum := tr.OverlappedSimTime(), bucketSum(tr)
			if over <= 0 || sum <= 0 {
				t.Fatalf("ranks=%d compressed=%v: degenerate times over=%v sum=%v", ranks, compressed, over, sum)
			}
			if over >= sum {
				t.Fatalf("ranks=%d compressed=%v: overlapped %v not strictly below bucket sum %v",
					ranks, compressed, over, sum)
			}
		}
	}
}

// TestPipelinedSerialMatchesBreakdown ties the clock to the public
// accounting: the components every Step books on the overlapped clock sum
// to exactly the breakdown buckets, so the bucket total is the serial
// schedule of the very costs the clock overlaps.
func TestPipelinedSerialMatchesBreakdown(t *testing.T) {
	tr, err := NewTrainer(paperishOptions(8, true, true))
	if err != nil {
		t.Fatal(err)
	}
	gen := criteo.NewGenerator(testSpec())
	var booked time.Duration
	for i := 0; i < 3; i++ {
		if _, err := tr.Step(gen.NextBatch(64)); err != nil {
			t.Fatal(err)
		}
		booked += serial(tr.clock.pending)
	}
	if sum := bucketSum(tr); booked != sum {
		t.Fatalf("booked serial cost %v != bucket sum %v", booked, sum)
	}
}
