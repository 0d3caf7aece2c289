package serve

import (
	"testing"

	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/testutil"
)

// TestScoreBatchAllocsSteadyState is the allocs/op regression gate for the
// serving hot path (it runs in the quick suite; CI fails if workspace or
// cache-slab reuse regresses). The bound is zero: with single-threaded
// kernels every matrix, gather buffer, and LRU structure is preallocated,
// and both the hit path (slab copy) and the miss path (buffered block
// decode) stay off the heap.
func TestScoreBatchAllocsSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pins are meaningless under the race detector (instrumented allocations, dropped pools)")
	}
	spec := testSpec()
	cfg := testConfig(spec, 8)
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
		max  float64
	}{
		// Hit-dominated: default cache, raw frames.
		{"raw_cached", Options{ColdCodec: "raw"}, 0},
		// Miss-every-row: no cache, every lookup decodes a quant block
		// through the hybrid codec's buffered path. sync.Pool can drop a
		// workspace across a GC mid-run, so a small non-zero bound.
		{"quant_uncached", Options{ColdCodec: "quant", QuantEB: 0.02, HotBytes: -1}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewFromModel(m, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			gen := criteo.NewGenerator(spec)
			// A batch small enough that every matmul stays under any
			// parallel threshold; ComputeWorkers defaults to 1 anyway.
			b := gen.NextBatch(16)
			out := make([]float32, 16)
			for i := 0; i < 3; i++ { // warm the lazily-grown workspaces
				if err := srv.ScoreBatch(b.Dense, b.Indices, out); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := srv.ScoreBatch(b.Dense, b.Indices, out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.max {
				t.Fatalf("ScoreBatch allocates %.1f objects per call in steady state, want <= %v", allocs, tc.max)
			}
		})
	}
}

// TestScoreAllocsSteadyState pins the request path the same way: a
// sequential Score on a warm server — admission, the pooled request
// record, the hand-off through the intake queue, the batcher's workspaces
// and the reply — allocates nothing.
func TestScoreAllocsSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pins are meaningless under the race detector (instrumented allocations, dropped pools)")
	}
	spec := testSpec()
	m, err := model.New(testConfig(spec, 8))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewFromModel(m, Options{ColdCodec: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dense, idx := requestArgs(criteo.NewGenerator(spec).NextBatch(1))
	score := func() {
		if _, err := srv.Score(dense, idx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the pool and the lazily-grown workspaces
		score()
	}
	if allocs := testing.AllocsPerRun(100, score); allocs > 0 {
		t.Fatalf("Score allocates %.1f objects per call in steady state, want 0", allocs)
	}
}
