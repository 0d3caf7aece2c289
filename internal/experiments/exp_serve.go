package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/scenario"
	"dlrmcomp/internal/serve"
)

func init() {
	register("loadtest", "Serving load: Zipf hot-row cache over compressed cold tiers", runLoadtest)
}

// loadtestRow is one cold codec's closed-loop run and its scores held
// against the uncompressed uncached reference.
type loadtestRow struct {
	label  string
	load   *serve.Load
	parity serve.Parity
}

// runLoadtest exercises the train→serve handoff end to end: train a small
// scenario, export the DLCK checkpoint, load it into the sharded serving
// layer under each cold-tier codec, and drive a closed-loop Zipf workload
// through the micro-batching Score path. The table reports, per codec, the
// steady-state hot-cache hit rate, throughput, latency percentiles, the
// mean micro-batch size, the cold tier's capacity multiplier, the shed
// count, and the maximum score deviation from an uncompressed uncached
// reference server — zero for the lossless codecs (serving is
// bit-identical under compression and caching), bounded by the
// quantization error for "quant", which is the mode that actually shrinks
// resident memory (lossless codecs cannot compress trained float32 rows).
func runLoadtest(opts Options) (*Result, error) {
	res, _, err := loadtest(opts)
	return res, err
}

// loadtest trains the scenario, then drives each cold codec through
// serve.Drive and compares its scores with serve.Reference. It returns the
// table and the rows it was made from.
func loadtest(opts Options) (*Result, []loadtestRow, error) {
	sp := scenario.Spec{
		Name: "loadtest", Dataset: "kaggle", Scale: 400, Dim: 16,
		Ranks: 4, Steps: 60,
	}
	if opts.Quick {
		sp.Steps = 10
		sp.Serve = &scenario.ServeSpec{Requests: 2000, Clients: 4}
	}
	built, err := sp.Build()
	if err != nil {
		return nil, nil, err
	}
	if _, err := built.Run(); err != nil {
		return nil, nil, err
	}
	var ckpt bytes.Buffer
	stats, err := built.Trainer.SaveCheckpoint(&ckpt, dist.CheckpointOptions{})
	if err != nil {
		return nil, nil, err
	}
	rs, err := sp.Resolved()
	if err != nil {
		return nil, nil, err
	}
	requests, clients := rs.ServeLoad()
	reqs := rs.ServeRequests(requests)
	want, err := serve.Reference(rs.ModelConfig(), bytes.NewReader(ckpt.Bytes()), reqs)
	if err != nil {
		return nil, nil, err
	}

	cases := []struct {
		label string
		opts  serve.Options
	}{
		{"raw", serve.Options{Shards: 2}},
		{"lzss", serve.Options{Shards: 2, ColdCodec: "lzss"}},
		{"quant eb=0.02", serve.Options{Shards: 2, ColdCodec: "quant", QuantEB: 0.02}},
	}
	var rows []loadtestRow
	var cells [][]string
	for _, tc := range cases {
		srv, err := serve.New(rs.ModelConfig(), bytes.NewReader(ckpt.Bytes()), tc.opts)
		if err != nil {
			return nil, nil, err
		}
		// Warm sequentially, then measure under the clients' load.
		_, err = serve.Drive(srv, reqs[:min(len(reqs), 1024)], 1)
		var load *serve.Load
		if err == nil {
			load, err = serve.Drive(srv, reqs, clients)
		}
		srv.Close()
		if err != nil {
			return nil, nil, err
		}
		r := loadtestRow{tc.label, load, load.Compare(want)}
		rows = append(rows, r)
		st := load.Stats
		cells = append(cells, []string{
			r.label,
			fmt.Sprintf("%.4f", st.HitRate()),
			fmt.Sprintf("%.0f", load.QPS()),
			load.Percentile(0.50).Round(time.Microsecond).String(),
			load.Percentile(0.99).Round(time.Microsecond).String(),
			fmt.Sprintf("%.2f", float64(st.Requests)/float64(st.Batches)),
			fmt.Sprintf("%.2fx", st.ColdRatio()),
			fmt.Sprintf("%d", st.HotBytes+st.ColdBytes),
			fmt.Sprintf("%d", load.Shed),
			fmt.Sprintf("%.2e", r.parity.MaxDelta),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint: %d bytes; %d requests, %d clients per codec\n\n", stats.Bytes, requests, clients)
	b.WriteString(table(
		[]string{"cold codec", "hit rate", "qps", "p50", "p99", "batch", "cold tier", "resident B", "shed", "max |Δscore|"},
		cells,
	))
	b.WriteString("\nlossless codecs serve bit-identical scores (Δ = 0); quant trades a bounded\n" +
		"score deviation for the only cold tier that actually compresses trained rows.\n")
	return &Result{Text: b.String()}, rows, nil
}
