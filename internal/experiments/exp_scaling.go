package experiments

import (
	"fmt"
	"strings"
	"time"

	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/profileutil"
	"dlrmcomp/internal/scenario"
)

func init() {
	register("scaling", "Topology scaling: flat vs hierarchical all-to-all, 4→128 ranks", runScaling)
}

// a2aTime sums a breakdown's embedding all-to-all buckets across both the
// flat label and the per-link split a hierarchical topology produces.
func a2aTime(bd profileutil.Breakdown) time.Duration {
	var t time.Duration
	for _, label := range []string{
		"fwd-a2a", "fwd-a2a-intra", "fwd-a2a-inter",
		"bwd-a2a", "bwd-a2a-intra", "bwd-a2a-inter",
	} {
		t += bd[label]
	}
	return t
}

// runScaling asks the scale questions the flat model cannot: it sweeps the
// rank count 4→128 at a fixed global batch (strong scaling) and compares
// the flat single-link topology against the hierarchical two-level model
// (4 ranks/node, two-phase all-to-all), with and without the hybrid codec.
// The hierarchical model routes intra-node traffic over the NVLink-class
// link and aggregates cross-node traffic per NIC, so its advantage grows as
// compression shrinks payloads toward the latency floor; the intra share
// column shows intra-node traffic ceasing to matter as the node count
// grows.
func runScaling(opts Options) (*Result, error) {
	rankSweep := []int{4, 8, 16, 32, 64, 128}
	steps, batch := 3, 2048
	if opts.Quick {
		rankSweep = []int{4, 8, 32, 64, 128}
		steps, batch = 2, 256
	}
	const ranksPerNode = 4
	base := criteo.TerabyteSpec()
	eb := probeEB(base)

	mk := func(ranks int, hier, compressed bool) scenario.Spec {
		sp := timingSpec(base, opts)
		sp.Ranks, sp.Batch, sp.Steps = ranks, batch, steps
		if hier {
			sp.Topology, sp.RanksPerNode = "hier", ranksPerNode
		}
		if compressed {
			sp.Codec, sp.ErrorBound = "hybrid", float64(eb)
		}
		return sp
	}
	// Cell order: ranks ▸ codec ▸ {flat, hier} — the pairing the row
	// construction below indexes into.
	var specs []scenario.Spec
	for _, ranks := range rankSweep {
		for _, compressed := range []bool{false, true} {
			specs = append(specs, mk(ranks, false, compressed), mk(ranks, true, compressed))
		}
	}
	results, err := scenario.Sweep(specs)
	if err != nil {
		return nil, err
	}

	var rows [][]string
	type verdict struct {
		ranks   int
		speedup float64
	}
	var checks []verdict
	idx := 0
	for _, ranks := range rankSweep {
		for _, compressed := range []bool{false, true} {
			flat, hier := results[idx], results[idx+1]
			idx += 2
			flatTotal := flat.SimTime.Total()
			hierTotal := hier.SimTime.Total()
			hierA2A := a2aTime(hier.SimTime)
			e2e := float64(flatTotal) / float64(hierTotal)
			comm := float64(a2aTime(flat.SimTime)) / float64(hierA2A)
			intraShare := 0.0
			if hierA2A > 0 {
				intra := hier.SimTime["fwd-a2a-intra"] + hier.SimTime["bwd-a2a-intra"]
				intraShare = float64(intra) / float64(hierA2A)
			}
			name := "none"
			crCell := "-"
			if compressed {
				name = "hybrid"
				crCell = fmt.Sprintf("%.1f", hier.CompressionRatio)
				checks = append(checks, verdict{ranks, e2e})
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", ranks),
				fmt.Sprintf("%d", (ranks+ranksPerNode-1)/ranksPerNode),
				name,
				crCell,
				flatTotal.Round(time.Microsecond).String(),
				hierTotal.Round(time.Microsecond).String(),
				fmt.Sprintf("%.2fx", e2e),
				fmt.Sprintf("%.2fx", comm),
				fmt.Sprintf("%.1f%%", 100*intraShare),
			})
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "strong scaling sweep, global batch %d, %d steps/run, %d ranks/node, eb %v\n",
		batch, steps, ranksPerNode, eb)
	sb.WriteString("flat = single α-β link, direct all-to-all; hier = two-level topology, two-phase all-to-all\n\n")
	sb.WriteString(table(
		[]string{"ranks", "nodes", "codec", "CR", "flat-e2e", "hier-e2e", "e2e-speedup", "a2a-speedup", "hier-intra-share"},
		rows))
	// The paper-shape claim this sweep guards: once compression shrinks
	// payloads toward the latency floor, staging through node leaders pays
	// off at scale.
	ok := true
	for _, c := range checks {
		if c.ranks >= 32 && c.speedup < 0.999 {
			ok = false
			fmt.Fprintf(&sb, "\nviolation: hybrid at %d ranks: hierarchical slower than flat (%.3fx)", c.ranks, c.speedup)
		}
	}
	if ok {
		sb.WriteString("\ncheck: hierarchical >= flat end-to-end at 32+ ranks with the hybrid codec: PASS\n")
	} else {
		sb.WriteString("\ncheck: hierarchical >= flat end-to-end at 32+ ranks with the hybrid codec: FAIL\n")
	}
	return &Result{Text: sb.String()}, nil
}
