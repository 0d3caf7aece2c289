package experiments

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/scenario"
	"dlrmcomp/internal/serve"
)

func init() {
	register("loadtest", "Serving load: Zipf hot-row cache over compressed cold tiers", runLoadtest)
}

// runLoadtest exercises the train→serve handoff end to end: train a small
// scenario, export the DLCK checkpoint, load it into the sharded serving
// layer under each cold-tier codec, and drive a closed-loop Zipf workload
// through the micro-batching Score path. The table reports, per codec, the
// steady-state hot-cache hit rate, throughput, latency percentiles, the
// mean micro-batch size, the cold tier's capacity multiplier, and the
// maximum score deviation from an uncompressed uncached reference server —
// zero for the lossless codecs
// (serving is bit-identical under compression and caching), bounded by the
// quantization error for "quant", which is the mode that actually shrinks
// resident memory (lossless codecs cannot compress trained float32 rows).
func runLoadtest(opts Options) (*Result, error) {
	steps, requests, clients := 60, 20000, 8
	if opts.Quick {
		steps, requests, clients = 10, 2000, 4
	}

	sp := scenario.Spec{
		Name: "loadtest", Dataset: "kaggle", Scale: 400, Dim: 16,
		Ranks: 4, Steps: steps,
	}
	built, err := sp.Build()
	if err != nil {
		return nil, err
	}
	if _, err := built.Run(); err != nil {
		return nil, err
	}
	var ckpt bytes.Buffer
	stats, err := built.Trainer.SaveCheckpoint(&ckpt, dist.CheckpointOptions{})
	if err != nil {
		return nil, err
	}
	rs, err := sp.Resolved()
	if err != nil {
		return nil, err
	}

	// The request stream replays the generator's Zipf-skewed traffic.
	gen := criteo.NewGenerator(rs.Data())
	type request struct {
		dense []float32
		idx   []int32
	}
	reqs := make([]request, requests)
	for i := range reqs {
		b := gen.NextBatch(1)
		idx := make([]int32, len(b.Indices))
		for t := range b.Indices {
			idx[t] = b.Indices[t][0]
		}
		reqs[i] = request{dense: b.Dense.Row(0), idx: idx}
	}

	// Reference scores: uncompressed cold tier, no cache, synchronous.
	ref, err := serve.New(rs.ModelConfig(), bytes.NewReader(ckpt.Bytes()), serve.Options{HotBytes: -1})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	want := make([]float32, len(reqs))
	for i, r := range reqs {
		if want[i], err = ref.Score(r.dense, r.idx); err != nil {
			return nil, err
		}
	}

	cases := []struct {
		label string
		opts  serve.Options
	}{
		{"raw", serve.Options{Shards: 2}},
		{"lzss", serve.Options{Shards: 2, ColdCodec: "lzss"}},
		{"deflate", serve.Options{Shards: 2, ColdCodec: "deflate"}},
		{"quant eb=0.02", serve.Options{Shards: 2, ColdCodec: "quant", QuantEB: 0.02}},
	}
	var rows [][]string
	var b strings.Builder
	for _, tc := range cases {
		srv, err := serve.New(rs.ModelConfig(), bytes.NewReader(ckpt.Bytes()), tc.opts)
		if err != nil {
			return nil, err
		}
		warmN := min(len(reqs), 1024)
		for _, r := range reqs[:warmN] {
			if _, err := srv.Score(r.dense, r.idx); err != nil {
				srv.Close()
				return nil, err
			}
		}
		warm := srv.Stats()

		lats := make([]int64, len(reqs))
		var next atomic.Int64
		var maxDeltaBits atomic.Uint64
		errc := make(chan error, clients)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(len(reqs)) {
						return
					}
					t0 := time.Now()
					score, err := srv.Score(reqs[i].dense, reqs[i].idx)
					if err != nil {
						errc <- err
						return
					}
					lats[i] = int64(time.Since(t0))
					d := math.Abs(float64(score - want[i]))
					for {
						cur := maxDeltaBits.Load()
						if d <= math.Float64frombits(cur) || maxDeltaBits.CompareAndSwap(cur, math.Float64bits(d)) {
							break
						}
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errc)
		for err := range errc {
			srv.Close()
			return nil, err
		}

		st := srv.Stats()
		srv.Close()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) time.Duration {
			return time.Duration(lats[int(p*float64(len(lats)-1))]).Round(time.Microsecond)
		}
		hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses
		hitRate := float64(hits) / float64(hits+misses)
		rows = append(rows, []string{
			tc.label,
			fmt.Sprintf("%.4f", hitRate),
			fmt.Sprintf("%.0f", float64(len(reqs))/elapsed.Seconds()),
			pct(0.50).String(),
			pct(0.99).String(),
			fmt.Sprintf("%.2f", float64(st.Requests-warm.Requests)/float64(st.Batches-warm.Batches)),
			fmt.Sprintf("%.2fx", st.ColdRatio()),
			fmt.Sprintf("%d", st.HotBytes+st.ColdBytes),
			fmt.Sprintf("%.2e", math.Float64frombits(maxDeltaBits.Load())),
		})
	}

	fmt.Fprintf(&b, "checkpoint: %d -> %d bytes (%.2fx, codec %s); %d requests, %d clients per codec\n\n",
		stats.RawBytes, stats.WireBytes, stats.Ratio(), dist.DefaultCheckpointCodec, requests, clients)
	b.WriteString(table(
		[]string{"cold codec", "hit rate", "qps", "p50", "p99", "batch", "cold tier", "resident B", "max |Δscore|"},
		rows,
	))
	b.WriteString("\nlossless codecs serve bit-identical scores (Δ = 0); quant trades a bounded\n" +
		"score deviation for the only cold tier that actually compresses trained rows.\n")
	return &Result{Text: b.String()}, nil
}
