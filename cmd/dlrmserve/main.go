// Command dlrmserve loads a DLCK checkpoint (cmd/dlrmtrain -save) into the
// sharded serving layer and drives it with a closed-loop Zipf-skewed load,
// reporting throughput, latency percentiles, mean micro-batch size,
// hot-cache hit rate, and the resident-memory split between the decoded
// hot tier and the compressed cold tier.
//
// The scenario file must be the one the checkpoint was trained under — the
// checkpoint carries shapes and weights, the scenario carries the model
// architecture and the serve block (shards, cold codec, cache budget,
// micro-batching knobs).
//
// Usage:
//
//	dlrmtrain -scenario examples/scenarios/serve_smoke.json -save model.ckpt
//	dlrmserve -scenario examples/scenarios/serve_smoke.json -checkpoint model.ckpt
//	dlrmserve -scenario ... -checkpoint ... -requests 100000 -clients 16
//
// CI smoke flags: -min-hit-rate fails the run when the steady-state hit
// rate lands below the floor, and -parity re-scores every request through
// an uncached raw server and fails on any score mismatch (bit-exact for
// lossless cold codecs; within the quantization bound for "quant").
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/scenario"
	"dlrmcomp/internal/serve"
)

func main() {
	scenarioFile := flag.String("scenario", "", "JSON scenario.Spec file the checkpoint was trained under (required)")
	ckptPath := flag.String("checkpoint", "", "DLCK checkpoint file written by dlrmtrain -save (required)")
	requests := flag.Int("requests", 0, "total requests to issue (0 = the scenario's serve.requests, else 20000)")
	clients := flag.Int("clients", 0, "closed-loop client goroutines (0 = the scenario's serve.clients, else 8)")
	minHitRate := flag.Float64("min-hit-rate", 0, "fail when the steady-state hot-cache hit rate is below this floor (0 = report only)")
	parity := flag.Bool("parity", false, "re-score every request through an uncached raw server and fail on any mismatch")
	flag.Parse()
	if *scenarioFile == "" || *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "usage: dlrmserve -scenario <spec.json> -checkpoint <model.ckpt> [flags]")
		os.Exit(2)
	}

	spec, err := scenario.LoadFile(*scenarioFile)
	if err != nil {
		fatal(err)
	}
	rs, err := spec.Resolved()
	if err != nil {
		fmt.Fprintf(os.Stderr, "invalid scenario:\n  %v\n", err)
		os.Exit(2)
	}
	if *requests == 0 {
		if rs.Serve != nil && rs.Serve.Requests > 0 {
			*requests = rs.Serve.Requests
		} else {
			*requests = 20000
		}
	}
	if *clients == 0 {
		if rs.Serve != nil && rs.Serve.Clients > 0 {
			*clients = rs.Serve.Clients
		} else {
			*clients = 8
		}
	}

	srv := load(rs, *ckptPath, rs.ServeOptions())
	defer srv.Close()
	opts := rs.ServeOptions()
	fmt.Printf("serving %s: %d shard(s), cold codec %s, %d requests from %d client(s)\n",
		rs.Name, max(opts.Shards, 1), coldCodecName(rs), *requests, *clients)

	// The request stream replays the dataset generator's Zipf-skewed
	// traffic — the same skew training saw, which is what makes the hot
	// cache earn its budget.
	reqs := genRequests(rs, *requests)

	// Warm: one pass over a slice of the stream fills caches and pools
	// before the measured window.
	warmN := min(len(reqs), 2048)
	for _, r := range reqs[:warmN] {
		if _, err := srv.Score(r.dense, r.idx); err != nil {
			fatal(err)
		}
	}
	warm := srv.Stats()

	lats := make([]int64, len(reqs))
	var next atomic.Int64
	var shed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				r := reqs[i]
				t0 := time.Now()
				score, err := srv.Score(r.dense, r.idx)
				switch err {
				case nil:
					reqs[i].score, reqs[i].scored = score, true
					lats[i] = int64(time.Since(t0))
				case serve.ErrOverloaded:
					shed.Add(1)
					lats[i] = -1
				default:
					fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := srv.Stats()
	served := int64(len(reqs)) - shed.Load()
	ok := make([]int64, 0, served)
	for _, l := range lats {
		if l >= 0 {
			ok = append(ok, l)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	pct := func(p float64) time.Duration {
		if len(ok) == 0 {
			return 0
		}
		return time.Duration(ok[int(p*float64(len(ok)-1))])
	}
	hits := st.Hits - warm.Hits
	misses := st.Misses - warm.Misses
	hitRate := serve.Stats{Hits: hits, Misses: misses}.HitRate()

	fmt.Printf("\nserved %d requests in %v (%d shed)\n", served, elapsed.Round(time.Millisecond), shed.Load())
	fmt.Printf("qps        %.0f\n", float64(served)/elapsed.Seconds())
	fmt.Printf("latency    p50 %v  p99 %v\n", pct(0.50), pct(0.99))
	if batches := st.Batches - warm.Batches; batches > 0 {
		fmt.Printf("batching   %.2f requests per micro-batch (%d batches)\n", float64(st.Requests-warm.Requests)/float64(batches), batches)
	}
	fmt.Printf("hit rate   %.4f (steady state; %d hits / %d misses)\n", hitRate, hits, misses)
	fmt.Printf("memory     hot %d B + cold %d B = %d B resident vs %d B uncompressed (cold tier %.2fx)\n",
		st.HotBytes, st.ColdBytes, st.HotBytes+st.ColdBytes, st.RawBytes, st.ColdRatio())

	if *minHitRate > 0 && hitRate < *minHitRate {
		fmt.Fprintf(os.Stderr, "FAIL: steady-state hit rate %.4f below the -min-hit-rate floor %.4f\n", hitRate, *minHitRate)
		os.Exit(1)
	}
	if *parity {
		checkParity(rs, *ckptPath, reqs)
	}
}

type request struct {
	dense  []float32
	idx    []int32
	score  float32
	scored bool
}

// genRequests replays n single-sample batches from the scenario's dataset
// generator.
func genRequests(rs scenario.Spec, n int) []request {
	data := rs.Data()
	gen := criteo.NewGenerator(data)
	reqs := make([]request, n)
	for i := range reqs {
		b := gen.NextBatch(1)
		idx := make([]int32, len(b.Indices))
		for t := range b.Indices {
			idx[t] = b.Indices[t][0]
		}
		reqs[i] = request{dense: b.Dense.Row(0), idx: idx}
	}
	return reqs
}

// load builds a server from the checkpoint file with the given options.
func load(rs scenario.Spec, path string, opts serve.Options) *serve.Server {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	srv, err := serve.New(rs.ModelConfig(), f, opts)
	if err != nil {
		fatal(err)
	}
	return srv
}

// checkParity re-scores every request synchronously through an uncached raw
// server — the reference path — and compares. Lossless cold codecs must
// match bit-for-bit; "quant" gets a small tolerance on the sigmoid output.
func checkParity(rs scenario.Spec, path string, reqs []request) {
	ref := load(rs, path, serve.Options{ColdCodec: "raw", HotBytes: -1})
	defer ref.Close()
	lossless := coldCodecName(rs) != "quant"
	var maxDelta float64
	checked := 0
	for i := range reqs {
		if !reqs[i].scored { // shed by admission control
			continue
		}
		checked++
		want, err := ref.Score(reqs[i].dense, reqs[i].idx)
		if err != nil {
			fatal(err)
		}
		got := reqs[i].score
		if lossless {
			if math.Float32bits(got) != math.Float32bits(want) {
				fmt.Fprintf(os.Stderr, "FAIL: request %d scored %v, the uncompressed reference %v — lossless serving must be bit-identical\n", i, got, want)
				os.Exit(1)
			}
		} else if d := math.Abs(float64(got - want)); d > maxDelta {
			maxDelta = d
		}
	}
	if lossless {
		fmt.Printf("parity     PASS: all %d scores bit-identical to the uncompressed reference\n", checked)
	} else {
		const tol = 0.05
		if maxDelta > tol {
			fmt.Fprintf(os.Stderr, "FAIL: quant scores drifted %.4f from the uncompressed reference (tolerance %.2f)\n", maxDelta, tol)
			os.Exit(1)
		}
		fmt.Printf("parity     PASS: quant scores within %.4f of the uncompressed reference (tolerance %.2f)\n", maxDelta, tol)
	}
}

func coldCodecName(rs scenario.Spec) string {
	if rs.Serve != nil && rs.Serve.Codec != "" {
		return rs.Serve.Codec
	}
	return serve.DefaultColdCodec
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
