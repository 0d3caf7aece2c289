// Command dlrmserve loads a DLCK checkpoint (cmd/dlrmtrain -save) into the
// sharded serving layer and drives it with a closed-loop Zipf-skewed load,
// reporting throughput, latency percentiles, mean micro-batch size,
// hot-cache hit rate, and the resident-memory split between the decoded
// hot tier and the compressed cold tier.
//
// The scenario file must be the one the checkpoint was trained under — the
// checkpoint carries shapes and weights, the scenario carries the model
// architecture and the serve block (shards, cold codec, cache budget, and
// the load: requests issued by concurrent clients).
//
// Usage:
//
//	dlrmtrain -scenario examples/scenarios/serve_smoke.json -save model.ckpt
//	dlrmserve -scenario examples/scenarios/serve_smoke.json -checkpoint model.ckpt [-min-hit-rate f] [-parity]
//
// CI smoke flags: -min-hit-rate fails the run when the steady-state hit
// rate lands below the floor, and -parity re-scores every request through
// an uncached raw server and fails on any score mismatch (bit-exact for
// lossless cold codecs; within the quantization bound for "quant").
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"dlrmcomp/internal/scenario"
	"dlrmcomp/internal/serve"
)

func main() {
	scenarioFile := flag.String("scenario", "", "JSON scenario.Spec file the checkpoint was trained under (required); its serve block sets the load")
	ckptPath := flag.String("checkpoint", "", "DLCK checkpoint file written by dlrmtrain -save (required)")
	minHitRate := flag.Float64("min-hit-rate", 0, "fail when the steady-state hot-cache hit rate is below this floor (0 = report only)")
	parity := flag.Bool("parity", false, "re-score every request through an uncached raw server and fail on any mismatch")
	flag.Parse()
	if *scenarioFile == "" || *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "usage: dlrmserve -scenario <spec.json> -checkpoint <model.ckpt> [-min-hit-rate f] [-parity]")
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
	ckpt, err := os.ReadFile(*ckptPath)
	if err != nil {
		fatal(err)
	}
	requests, clients := rs.ServeLoad()
	opts := rs.ServeOptions()
	srv, err := serve.New(rs.ModelConfig(), bytes.NewReader(ckpt), opts)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Printf("serving %s: %d shard(s), cold codec %s, %d requests from %d client(s)\n",
		rs.Name, max(opts.Shards, 1), coldCodecName(rs), requests, clients)

	reqs := rs.ServeRequests(requests)
	// Warm: one sequential pass over a slice of the stream fills caches
	// and pools before the measured window.
	if _, err := serve.Drive(srv, reqs[:min(len(reqs), 2048)], 1); err != nil {
		fatal(err)
	}
	res, err := serve.Drive(srv, reqs, clients)
	if err != nil {
		fatal(err)
	}

	st := res.Stats
	fmt.Printf("\nserved %d requests in %v (%d shed)\n", len(reqs)-res.Shed, res.Elapsed.Round(time.Millisecond), res.Shed)
	fmt.Printf("qps        %.0f\n", res.QPS())
	fmt.Printf("latency    p50 %v  p99 %v\n", res.Percentile(0.50), res.Percentile(0.99))
	if st.Batches > 0 {
		fmt.Printf("batching   %.2f requests per micro-batch (%d batches)\n", float64(st.Requests)/float64(st.Batches), st.Batches)
	}
	fmt.Printf("hit rate   %.4f (steady state; %d hits / %d misses)\n", st.HitRate(), st.Hits, st.Misses)
	fmt.Printf("memory     hot %d B + cold %d B = %d B resident vs %d B uncompressed (cold tier %.2fx)\n",
		st.HotBytes, st.ColdBytes, st.HotBytes+st.ColdBytes, st.RawBytes, st.ColdRatio())

	if *minHitRate > 0 && st.HitRate() < *minHitRate {
		fmt.Fprintf(os.Stderr, "FAIL: steady-state hit rate %.4f below the -min-hit-rate floor %.4f\n", st.HitRate(), *minHitRate)
		os.Exit(1)
	}
	if *parity {
		checkParity(rs, ckpt, reqs, res)
	}
}

// checkParity holds the served scores against the uncached raw reference.
// Lossless cold codecs must match bit-for-bit; "quant" gets a small
// tolerance on the sigmoid output.
func checkParity(rs scenario.Spec, ckpt []byte, reqs []serve.Request, res *serve.Load) {
	want, err := serve.Reference(rs.ModelConfig(), bytes.NewReader(ckpt), reqs)
	if err != nil {
		fatal(err)
	}
	p := res.Compare(want)
	if coldCodecName(rs) != "quant" {
		if p.Mismatched > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: %d of %d scores differ from the uncompressed reference (max |Δ| %.3g) — lossless serving must be bit-identical\n", p.Mismatched, p.Checked, p.MaxDelta)
			os.Exit(1)
		}
		fmt.Printf("parity     PASS: all %d scores bit-identical to the uncompressed reference\n", p.Checked)
		return
	}
	const tol = 0.05
	if p.MaxDelta > tol {
		fmt.Fprintf(os.Stderr, "FAIL: quant scores drifted %.4f from the uncompressed reference (tolerance %.2f)\n", p.MaxDelta, tol)
		os.Exit(1)
	}
	fmt.Printf("parity     PASS: quant scores within %.4f of the uncompressed reference (tolerance %.2f)\n", p.MaxDelta, tol)
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
