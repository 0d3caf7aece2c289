// Command dlrmtrain runs end-to-end hybrid-parallel DLRM training on the
// simulated cluster, with or without communication compression, and prints
// the loss curve, evaluation metrics, compression ratio, and the simulated
// time breakdown (Fig. 1 / Fig. 12 style).
//
// The flags assemble a scenario.Spec; -scenario loads the same Spec from a
// JSON file instead (see examples/scenarios/), so a committed file and a
// flag invocation describing the same workload produce bit-identical runs.
//
// Usage:
//
//	dlrmtrain -dataset kaggle -ranks 8 -steps 200 -codec hybrid -eb 0.02
//	dlrmtrain -dataset terabyte -ranks 32 -codec none          # baseline
//	dlrmtrain -codec hybrid -adaptive                          # dual-level adaptive
//	dlrmtrain -topology hier -nodes 8 -ranks-per-node 4        # paper testbed shape
//	dlrmtrain -scenario examples/scenarios/hier8_hybrid.json   # declarative form
//	dlrmtrain -steps 100 -save model.ckpt                      # export for dlrmserve
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/scenario"
)

func main() {
	scenarioFile := flag.String("scenario", "", "JSON scenario.Spec file; replaces the workload flags below")
	dataset := flag.String("dataset", "kaggle", "kaggle or terabyte")
	ranks := flag.Int("ranks", 8, "simulated GPU count")
	topology := flag.String("topology", "flat", "interconnect model: flat (single α-β link) or hier (two-level, two-phase all-to-all)")
	nodes := flag.Int("nodes", 0, "node count; with -topology hier the rank count is nodes*ranks-per-node (inconsistent -ranks is an error)")
	ranksPerNode := flag.Int("ranks-per-node", 4, "GPUs per node for -topology hier and -nodes")
	steps := flag.Int("steps", 200, "training steps")
	batch := flag.Int("batch", 0, "global batch size (0 = dataset default)")
	scale := flag.Int("scale", 400, "cardinality scale-down factor")
	dim := flag.Int("dim", 16, "embedding dimension")
	codecName := flag.String("codec", "hybrid", strings.Join(scenario.CodecNames(), "|"))
	eb := flag.Float64("eb", 0.02, "error bound for lossy codecs")
	adaptive := flag.Bool("adaptive", false, "enable dual-level adaptive error bounds")
	phase := flag.Int("phase", 0, "decay phase length (0 = steps/2)")
	evalN := flag.Int("eval", 4000, "evaluation sample count")
	savePath := flag.String("save", "", "write the trained model as a DLCK checkpoint to this file (servable with dlrmserve)")
	flag.Parse()

	// Which flags did the user actually pass? Used both to reject workload
	// flags alongside -scenario (the file is the whole spec; dropping a
	// flag silently is the failure mode this layer removes) and to tell an
	// explicit -ranks apart from its default.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var spec scenario.Spec
	if *scenarioFile != "" {
		var conflicts []string
		for name := range set {
			// -save names an output artifact, not a workload knob, so it
			// composes with -scenario.
			if name != "scenario" && name != "save" {
				conflicts = append(conflicts, "-"+name)
			}
		}
		if len(conflicts) > 0 {
			sort.Strings(conflicts)
			fmt.Fprintf(os.Stderr, "invalid scenario:\n  -scenario replaces the workload flags; drop %s or fold them into %s\n",
				strings.Join(conflicts, ", "), *scenarioFile)
			os.Exit(2)
		}
		var err error
		spec, err = scenario.LoadFile(*scenarioFile)
		if err != nil {
			fatal(err)
		}
	} else {
		spec = scenario.Spec{
			Dataset:      *dataset,
			Scale:        *scale,
			Dim:          *dim,
			Batch:        *batch,
			Steps:        *steps,
			Eval:         *evalN,
			Topology:     *topology,
			Codec:        *codecName,
			ErrorBound:   *eb,
			RanksPerNode: *ranksPerNode,
			Nodes:        *nodes,
		}
		if *adaptive {
			spec.Adaptive = true
			spec.DecayPhase = *phase
		}
		// Only pin the rank count when the user asked for one (or gave no
		// node count at all): Spec.Validate rejects an inconsistent
		// -ranks/-nodes/-ranks-per-node combination instead of silently
		// letting one flag override another.
		if set["ranks"] || *nodes == 0 {
			spec.Ranks = *ranks
		}
	}

	built, err := spec.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "invalid scenario:\n  %s\n", strings.ReplaceAll(err.Error(), "\n", "\n  "))
		os.Exit(2)
	}
	sp := built.Spec
	if built.Offline != nil {
		// The offline phase classified tables from a sampled batch.
		l, m, s := built.Offline.ClassCounts()
		fmt.Printf("offline classification: L=%d M=%d S=%d, %s %gx decay over %d steps\n",
			l, m, s, sp.Schedule, sp.DecayFactor, sp.DecayPhase)
	}
	fmt.Printf("topology %s: %d ranks across %d node(s)\n", built.Net.Name(), sp.Ranks, built.Net.Nodes(sp.Ranks))
	if fp := sp.Faults; fp != nil {
		fmt.Printf("fault plan: jitter %g, %d slow rank(s), %d drop/rejoin event(s)\n",
			fp.Jitter, len(fp.Slow), len(fp.Events))
	}

	res, err := built.Run()
	if err != nil {
		fatal(err)
	}
	for i, loss := range res.Losses {
		if i%10 == 0 || i == len(res.Losses)-1 {
			fmt.Printf("step %4d  loss %.4f\n", i, loss)
		}
	}
	for _, r := range res.Reshards {
		fmt.Printf("reshard before step %d: %d -> %d ranks, %d table(s) moved (%d bytes)\n",
			r.Step, r.FromRanks, r.ToRanks, r.MovedTables, r.MovedBytes)
	}
	if ck := res.Checkpoints; ck != nil {
		fmt.Printf("checkpoints: %d saved, %d bytes\n", ck.Count, ck.Bytes)
	}
	if sp.Eval > 0 {
		fmt.Printf("\neval: accuracy %.4f  logloss %.4f\n", res.Accuracy, res.LogLoss)
	}
	if sp.Codec != "none" {
		fmt.Printf("forward all-to-all compression ratio: %.2fx\n", res.CompressionRatio)
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fatal(err)
		}
		stats, err := built.Trainer.SaveCheckpoint(f, dist.CheckpointOptions{})
		if err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("saved checkpoint %s: %d bytes\n", *savePath, stats.Bytes)
	}
	fmt.Printf("\nsimulated time breakdown:\n%s", res.SimTime.String())
	// The bucket total is the synchronous clock; the overlapped clock
	// pipelines the forward all-to-all of batch k+1 behind the MLP of batch
	// k over the same steps.
	if serial, over := res.SimTime.Total(), res.OverlappedSimTime; over > 0 {
		fmt.Printf("\ncomm/compute overlap: synchronous %v -> overlapped %v (%.2fx, %.1f%% of e2e recovered)\n",
			serial.Round(time.Microsecond), over.Round(time.Microsecond),
			float64(serial)/float64(over), 100*float64(serial-over)/float64(serial))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
