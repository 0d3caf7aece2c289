package dist

import (
	"fmt"
	"testing"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/netmodel"
)

// The Step benchmarks measure the real (wall-clock) train-step hot path —
// the thing Eq. (2) calls Tc/Td and the workspace refactor targets — as
// opposed to the modelled sim-time the experiments report. Run with
// -benchmem: B/op and allocs/op are the numbers to watch (alloc_test.go
// pins the bounds; bench/ measures the end-to-end cost).

const benchBatch = 256

func benchTrainer(b *testing.B, ranks int, withCodec bool) (*Trainer, *criteo.Generator) {
	b.Helper()
	spec := testSpec()
	opts := Options{Ranks: ranks, Model: testConfig(spec, 16)}
	if withCodec {
		opts.CodecFor = func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) }
	}
	if ranks > 1 {
		opts.Net = netmodel.PaperHierarchical(4)
	}
	tr, err := NewTrainer(opts)
	if err != nil {
		b.Fatal(err)
	}
	return tr, criteo.NewGenerator(spec)
}

func benchStep(b *testing.B, ranks int, withCodec bool) {
	b.Helper()
	tr, gen := benchTrainer(b, ranks, withCodec)
	batch := gen.NextBatch(benchBatch)
	if _, err := tr.Step(batch); err != nil { // warm up lazily-grown state
		b.Fatal(err)
	}
	b.SetBytes(int64(benchBatch) * int64(len(tr.opts.Model.TableSizes)) * int64(tr.opts.Model.EmbeddingDim) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStep_1Rank(b *testing.B)       { benchStep(b, 1, false) }
func BenchmarkStep_1RankHybrid(b *testing.B) { benchStep(b, 1, true) }
func BenchmarkStep_8Ranks(b *testing.B)      { benchStep(b, 8, false) }
func BenchmarkStep_8RanksHybrid(b *testing.B) {
	benchStep(b, 8, true)
}

// benchStepComputeWorkers pins the intra-rank compute width so the
// ComputeWorkers scaling curve is visible in the bench trajectory on
// multi-core runners (on a single-core machine all three collapse to the
// serial path, modulo span bookkeeping).
func benchStepComputeWorkers(b *testing.B, workers int) {
	b.Helper()
	spec := testSpec()
	tr, err := NewTrainer(Options{
		Ranks:          8,
		Model:          testConfig(spec, 16),
		Net:            netmodel.PaperHierarchical(4),
		ComputeWorkers: workers,
		CodecFor:       func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) },
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := criteo.NewGenerator(spec)
	batch := gen.NextBatch(benchBatch)
	if _, err := tr.Step(batch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStep_8Ranks_ComputeWorkers1(b *testing.B) { benchStepComputeWorkers(b, 1) }
func BenchmarkStep_8Ranks_ComputeWorkers4(b *testing.B) { benchStepComputeWorkers(b, 4) }
func BenchmarkStep_8Ranks_ComputeWorkers8(b *testing.B) { benchStepComputeWorkers(b, 8) }

// BenchmarkStep_Pipelined drives the overlap engine: same math as Step, but
// the per-step costs are additionally replayed onto the occupancy timeline.
func BenchmarkStep_Pipelined(b *testing.B) {
	for _, ranks := range []int{1, 8} {
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			tr, gen := benchTrainer(b, ranks, true)
			batch := gen.NextBatch(benchBatch)
			if _, err := tr.RunPipelined(1, func(int) *criteo.Batch { return batch }); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.RunPipelined(1, func(int) *criteo.Batch { return batch }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
