package serve

import (
	"fmt"
	"testing"

	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/model"
)

// The BenchmarkServe_ScoreBatch* benchmarks are the serving hot path in
// isolation: single goroutine at scorer width 1 (alloc_test.go pins its
// allocation bounds). The BenchmarkServeLoad_* closed-loop benchmarks
// report throughput and tail latency (qps, p50-ns, p99-ns, hit-rate) —
// scheduler-dependent numbers that inform; bench/'s serve workloads are
// the gated measurement.

const benchServeBatch = 64

func benchServer(b *testing.B, opts Options) (*Server, *criteo.Generator) {
	b.Helper()
	spec := testSpec()
	m, err := model.New(testConfig(spec, 16))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewFromModel(m, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv, criteo.NewGenerator(spec)
}

func benchScoreBatch(b *testing.B, opts Options) {
	srv, gen := benchServer(b, opts)
	batch := gen.NextBatch(benchServeBatch)
	out := make([]float32, benchServeBatch)
	for i := 0; i < 3; i++ { // warm caches and lazily-grown workspaces
		if err := srv.ScoreBatch(batch.Dense, batch.Indices, out); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(benchServeBatch) * int64(len(srv.cfg.TableSizes)) * int64(srv.cfg.EmbeddingDim) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.ScoreBatch(batch.Dense, batch.Indices, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServe_ScoreBatchHot(b *testing.B) {
	benchScoreBatch(b, Options{ColdCodec: "raw"})
}

func BenchmarkServe_ScoreBatchHotQuant(b *testing.B) {
	benchScoreBatch(b, Options{ColdCodec: "quant", QuantEB: 0.02})
}

// Every lookup misses and decodes its quant block — the cold-tier decode
// cost the hot cache exists to amortize.
func BenchmarkServe_ScoreBatchColdQuant(b *testing.B) {
	benchScoreBatch(b, Options{ColdCodec: "quant", QuantEB: 0.02, HotBytes: -1})
}

// benchZipfLoad is the closed-loop load benchmark: Drive's `clients`
// goroutines each keep one request in flight against the micro-batching
// Score path, cycling through a pre-generated Zipf-skewed request stream.
// One benchmark op is one request; per-request latencies feed the p50/p99
// metrics and wall-clock feeds qps.
func benchZipfLoad(b *testing.B, opts Options, clients int) {
	srv, gen := benchServer(b, opts)
	const nreq = 1024
	stream := make([]Request, nreq)
	for i := range stream {
		r := gen.NextBatch(1)
		idx := make([]int32, len(r.Indices))
		for t := range r.Indices {
			idx[t] = r.Indices[t][0]
		}
		stream[i] = Request{Dense: r.Dense.Row(0), Indices: idx}
	}
	reqs := make([]Request, b.N)
	for i := range reqs {
		reqs[i] = stream[i%nreq]
	}
	// Warm the cache and the pending pool.
	if _, err := Drive(srv, stream[:256], 1); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	l, err := Drive(srv, reqs, clients)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(l.QPS(), "qps")
	b.ReportMetric(float64(l.Percentile(0.50)), "p50-ns")
	b.ReportMetric(float64(l.Percentile(0.99)), "p99-ns")
	if l.Stats.Hits+l.Stats.Misses > 0 {
		b.ReportMetric(l.Stats.HitRate(), "hit-rate")
	}
	b.ReportMetric(float64(l.Stats.HotBytes+l.Stats.ColdBytes), "resident-B")
}

func BenchmarkServeLoad_Zipf(b *testing.B) {
	for _, clients := range []int{1, 8} {
		b.Run(fmt.Sprintf("raw_clients%d", clients), func(b *testing.B) {
			benchZipfLoad(b, Options{ColdCodec: "raw"}, clients)
		})
		b.Run(fmt.Sprintf("quant_clients%d", clients), func(b *testing.B) {
			benchZipfLoad(b, Options{ColdCodec: "quant", QuantEB: 0.02}, clients)
		})
	}
}
