package dist

import (
	"reflect"
	"testing"
	"time"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/testutil"
)

// maxStepAllocs is the documented steady-state allocation bound for one
// Trainer.Step at 1 rank. Exact zero is not achievable — the cluster
// fan-out spawns one goroutine per rank and each collective returns a
// handle plus a receive table — but every batch-sized buffer (frames,
// lookup matrices, gradient scratch, the flattened allreduce buffer, all
// codec workspaces) is reused, so what remains is a small constant
// independent of batch size, table count, and model width. Measured 22 on a
// single-core run; the bound leaves headroom for scheduler-dependent
// goroutine recycling on other machines, not for per-buffer regressions
// (reintroducing even one per-table allocation on Criteo's 26 tables blows
// straight past it).
const maxStepAllocs = 48

// TestStepAllocsSteadyState is the allocs/op regression gate for the
// trainer hot path (it runs in the quick suite; CI fails if the workspace
// reuse regresses).
func TestStepAllocsSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pins are meaningless under the race detector (instrumented allocations, dropped pools)")
	}
	// GOMAXPROCS = Ranks derives an intra-rank width of 1, which keeps every
	// fan-out a plain loop, so the count is machine-independent; width
	// parity is covered separately.
	testutil.SetGOMAXPROCS(t, 1)
	spec := testSpec()
	tr, err := NewTrainer(Options{
		Ranks:    1,
		Model:    testConfig(spec, 8),
		CodecFor: func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) },
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := criteo.NewGenerator(spec)
	// A batch small enough that every matmul stays under the tensor
	// package's parallel threshold on any machine — row-parallel matmul
	// spawns goroutines, which would make the count GOMAXPROCS-dependent.
	batch := gen.NextBatch(16)
	for i := 0; i < 3; i++ { // warm the lazily-grown workspaces
		if _, err := tr.Step(batch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := tr.Step(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxStepAllocs {
		t.Fatalf("steady-state Step allocates %.1f times per op, documented bound is %d", allocs, maxStepAllocs)
	}
	t.Logf("steady-state Step: %.1f allocs/op (bound %d)", allocs, maxStepAllocs)
}

// TestStepAllocsIndependentOfBatch checks the bound is about reuse, not
// batch luck: quadrupling the batch after warmup must not change the
// steady-state allocation count (the workspaces grow once, then stabilize).
func TestStepAllocsIndependentOfBatch(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pins are meaningless under the race detector (instrumented allocations, dropped pools)")
	}
	testutil.SetGOMAXPROCS(t, 1) // width 1, as above
	spec := testSpec()
	tr, err := NewTrainer(Options{Ranks: 1, Model: testConfig(spec, 4)})
	if err != nil {
		t.Fatal(err)
	}
	gen := criteo.NewGenerator(spec)
	small, big := gen.NextBatch(8), gen.NextBatch(32)
	for i := 0; i < 2; i++ {
		if _, err := tr.Step(big); err != nil { // warm to the larger size
			t.Fatal(err)
		}
	}
	measure := func(b *criteo.Batch) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := tr.Step(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, b := measure(small), measure(big); b > s+1 {
		t.Fatalf("allocs grow with batch size after warmup: %v (small) vs %v (big)", s, b)
	}
}

// widthRun is what a width-parity test compares between two widths.
type widthRun struct {
	losses  []float32
	ratio   float64
	buckets map[string]time.Duration
	acc, ll float64
}

// trainAtWidth trains 4 ranks with GOMAXPROCS set to procs, checks that
// NewTrainer derived wantWidth from it (GOMAXPROCS/Ranks, clamped to
// [1, 8]), and returns the six losses, the compression ratio, every
// sim-time bucket and the final evaluation.
func trainAtWidth(t *testing.T, procs, wantWidth int) widthRun {
	t.Helper()
	testutil.SetGOMAXPROCS(t, procs)
	spec := testSpec()
	tr, err := NewTrainer(Options{
		Ranks:    4,
		Model:    testConfig(spec, 8),
		CodecFor: func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.width != wantWidth {
		t.Fatalf("GOMAXPROCS=%d: derived width %d, want %d", procs, tr.width, wantWidth)
	}
	gen := criteo.NewGenerator(spec)
	var r widthRun
	for step := 0; step < 6; step++ {
		loss, err := tr.Step(gen.NextBatch(33)) // uneven shards on purpose
		if err != nil {
			t.Fatal(err)
		}
		r.losses = append(r.losses, loss)
	}
	r.ratio = tr.CompressionRatio()
	r.buckets = tr.Cluster().SimTimes()
	r.acc, r.ll = tr.Evaluate(gen.NextBatch(128))
	return r
}

// TestCodecWorkersParity pins that the per-table codec jobs are pure
// scheduling: encoding and decoding them one after another (width 1) or
// four at a time (width 4, one job per table at 4 ranks) gives bit-identical
// losses, compression ratio, sim-time buckets and final evaluation. The
// width is derived, so the test reaches it through GOMAXPROCS.
func TestCodecWorkersParity(t *testing.T) {
	seq := trainAtWidth(t, 4, 1)
	if par := trainAtWidth(t, 16, 4); !reflect.DeepEqual(par, seq) {
		t.Fatalf("width 4 diverged from width 1:\n got  %+v\n want %+v", par, seq)
	}
}

// TestComputeWorkersParity pins the determinism invariant of the intra-rank
// compute width: the parallel matmul rows, interaction samples, embedding
// gathers and optimizer spans fan out at the derived width, and training at
// widths 1, 2 and 8 (GOMAXPROCS 4, 8 and 32 at 4 ranks) must give
// bit-identical losses, compression ratio, sim-time buckets and final
// evaluation. Runs under -race in CI, which also makes it the data-race
// canary for the shared tensor worker pool.
func TestComputeWorkersParity(t *testing.T) {
	base := trainAtWidth(t, 4, 1)
	for _, c := range []struct{ procs, width int }{{8, 2}, {32, 8}} {
		if got := trainAtWidth(t, c.procs, c.width); !reflect.DeepEqual(got, base) {
			t.Fatalf("width %d diverged from width 1:\n got  %+v\n want %+v", c.width, got, base)
		}
	}
}
