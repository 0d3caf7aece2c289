package experiments

import (
	"fmt"
	"strings"
	"time"

	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/scenario"
)

func init() {
	register("overlap", "Comm/compute overlap: pipelined vs synchronous schedule", runOverlap)
}

// runOverlap measures what the overlap schedule recovers: every run keeps
// both clocks, so it compares the serial schedule cost (the bucket total)
// against the overlapped makespan (dist.Trainer.OverlappedSimTime), across
// flat/hierarchical topology × codec none/hybrid. The
// "recovered a2a" column reports the saving as a fraction of the embedding
// all-to-all time, the bucket the paper's Fig. 1 shows dominating: it is
// the share of the communication bottleneck the schedule hides under
// compute. The hybrid codec shrinks the wire time toward the latency
// floor, so its absolute win is smaller but the recovered fraction stays
// high; the hierarchical topology splits traffic across two links the
// timeline can keep busy simultaneously.
func runOverlap(opts Options) (*Result, error) {
	rankSweep := []int{8, 32, 64}
	steps, batch := 3, 2048
	if opts.Quick {
		rankSweep = []int{8, 32}
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
	// Cell order: ranks ▸ topology ▸ codec, matching the row loop below.
	var specs []scenario.Spec
	for _, ranks := range rankSweep {
		for _, hier := range []bool{false, true} {
			for _, compressed := range []bool{false, true} {
				specs = append(specs, mk(ranks, hier, compressed))
			}
		}
	}
	results, err := scenario.Sweep(specs)
	if err != nil {
		return nil, err
	}

	var rows [][]string
	type verdict struct {
		ranks   int
		codec   string
		speedup float64
	}
	var checks []verdict
	idx := 0
	for _, ranks := range rankSweep {
		for _, hier := range []bool{false, true} {
			for _, compressed := range []bool{false, true} {
				res := results[idx]
				idx++
				a2a := a2aTime(res.SimTime)
				serial := res.SimTime.Total()
				speedup := float64(serial) / float64(res.OverlappedSimTime)
				recovered := 0.0
				if a2a > 0 {
					recovered = float64(serial-res.OverlappedSimTime) / float64(a2a)
				}
				topo, codecName, crCell := "flat", "none", "-"
				if hier {
					topo = "hier"
				}
				if compressed {
					codecName = "hybrid"
					crCell = fmt.Sprintf("%.1f", res.CompressionRatio)
				}
				if hier {
					checks = append(checks, verdict{ranks, codecName, speedup})
				}
				rows = append(rows, []string{
					fmt.Sprintf("%d", ranks),
					topo,
					codecName,
					crCell,
					serial.Round(time.Microsecond).String(),
					res.OverlappedSimTime.Round(time.Microsecond).String(),
					fmt.Sprintf("%.2fx", speedup),
					fmt.Sprintf("%.1f%%", 100*float64(a2a)/float64(serial)),
					fmt.Sprintf("%.1f%%", 100*recovered),
				})
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "comm/compute overlap sweep, global batch %d, %d steps/run, %d ranks/node (hier), eb %v\n",
		batch, steps, ranksPerNode, eb)
	sb.WriteString("sync = every component serial; overlap = fwd a2a of batch k+1 pipelined behind MLP of batch k\n")
	sb.WriteString("recovered-a2a = (sync - overlap) / a2a: the share of all-to-all time hidden under compute\n\n")
	sb.WriteString(table(
		[]string{"ranks", "topo", "codec", "CR", "sync-e2e", "overlap-e2e", "speedup", "a2a-share", "recovered-a2a"},
		rows))
	// The acceptance gate: the overlapped schedule is strictly faster on
	// the hierarchical topology, with and without the codec (every swept
	// rank count is >= 8).
	ok := true
	for _, c := range checks {
		if c.speedup <= 1.0 {
			ok = false
			fmt.Fprintf(&sb, "\nviolation: %s at %d ranks (hier): overlap not faster (%.3fx)", c.codec, c.ranks, c.speedup)
		}
	}
	if ok {
		sb.WriteString("\ncheck: overlapped e2e strictly below synchronous at 8+ ranks on hier (codec none and hybrid): PASS\n")
	} else {
		sb.WriteString("\ncheck: overlapped e2e strictly below synchronous at 8+ ranks on hier (codec none and hybrid): FAIL\n")
	}
	return &Result{Text: sb.String()}, nil
}
