package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/model"
)

// The BenchmarkServe_ScoreBatch* benchmarks are the serving hot path in
// isolation: single goroutine, ComputeWorkers 1 (alloc_test.go pins its
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

// benchZipfLoad is the closed-loop load benchmark: `clients` goroutines
// each keep one request in flight against the micro-batching Score path,
// cycling through a pre-generated Zipf-skewed request stream. One
// benchmark op is one request; per-request latencies feed the p50/p99
// metrics and wall-clock feeds qps.
func benchZipfLoad(b *testing.B, opts Options, clients int) {
	srv, gen := benchServer(b, opts)
	const nreq = 1024
	dense := make([][]float32, nreq)
	idx := make([][]int32, nreq)
	for i := range dense {
		r := gen.NextBatch(1)
		dense[i] = r.Dense.Row(0)
		cols := make([]int32, len(r.Indices))
		for t := range r.Indices {
			cols[t] = r.Indices[t][0]
		}
		idx[i] = cols
	}
	// Warm the cache and the pending pool.
	for i := 0; i < 256; i++ {
		if _, err := srv.Score(dense[i%nreq], idx[i%nreq]); err != nil {
			b.Fatal(err)
		}
	}
	warm := srv.Stats()

	lats := make([]int64, b.N)
	var next atomic.Int64
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				r := int(i) % nreq
				t0 := time.Now()
				if _, err := srv.Score(dense[r], idx[r]); err != nil {
					b.Error(err)
					return
				}
				lats[i] = int64(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		k := int(p * float64(len(lats)-1))
		return float64(lats[k])
	}
	st := srv.Stats()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "qps")
	b.ReportMetric(pct(0.50), "p50-ns")
	b.ReportMetric(pct(0.99), "p99-ns")
	lookups := (st.Hits + st.Misses) - (warm.Hits + warm.Misses)
	if lookups > 0 {
		b.ReportMetric(float64(st.Hits-warm.Hits)/float64(lookups), "hit-rate")
	}
	b.ReportMetric(float64(st.HotBytes+st.ColdBytes), "resident-B")
}

func benchLoadOpts(codec string, eb float32, clients int) Options {
	return Options{
		ColdCodec: codec, QuantEB: eb,
		MaxBatch: clients, Workers: 2, QueueDepth: 4 * clients,
	}
}

func BenchmarkServeLoad_Zipf(b *testing.B) {
	for _, clients := range []int{1, 8} {
		b.Run(fmt.Sprintf("raw_clients%d", clients), func(b *testing.B) {
			benchZipfLoad(b, benchLoadOpts("raw", 0, clients), clients)
		})
		b.Run(fmt.Sprintf("quant_clients%d", clients), func(b *testing.B) {
			benchZipfLoad(b, benchLoadOpts("quant", 0.02, clients), clients)
		})
	}
}
