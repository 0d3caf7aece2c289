// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                     # print the experiment table
//	experiments -list               # IDs only
//	experiments -design             # markdown index block for DESIGN.md
//	experiments -run fig11          # one experiment
//	experiments scaling             # positional form of -run
//	experiments -run all            # everything, in order
//	experiments -run fig12 -full    # paper-scale workloads (slower)
//	experiments -run fig12 -json    # structured {id,title,text} output
//	experiments -smoke              # tiny scenario sweep, one cell per
//	                                # topology×codec corner (CI gate)
//	experiments -smoke -json        # the sweep's scenario.Results as JSON
//
// The experiment table printed with no arguments and the index embedded in
// DESIGN.md both come from the same registry (internal/experiments), so
// they cannot drift; a test pins DESIGN.md to `experiments -design` output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dlrmcomp/internal/experiments"
	"dlrmcomp/internal/scenario"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	design := flag.Bool("design", false, "print the DESIGN.md experiment-index markdown and exit")
	run := flag.String("run", "", "experiment ID to run, or 'all'")
	full := flag.Bool("full", false, "use paper-scale workloads instead of quick mode")
	smoke := flag.Bool("smoke", false, "run the scenario smoke sweep (one tiny Spec per topology×codec corner) and exit")
	jsonOut := flag.Bool("json", false, "emit structured JSON instead of text (experiment results or, with -smoke, scenario.Results)")
	flag.Parse()

	if *run == "" && flag.NArg() > 0 {
		// `experiments scaling [-full]` == `experiments -run scaling [-full]`:
		// flag.Parse stops at the first non-flag argument, so re-parse the
		// tail for flags that follow the positional id.
		*run = flag.Arg(0)
		flag.CommandLine.Parse(flag.Args()[1:]) // ExitOnError: exits on bad flags
	}
	// Mode flags are honored wherever they appear, including after a
	// positional id (`experiments scaling -list` lists, it doesn't run).
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *design {
		fmt.Print(experiments.IndexMarkdown())
		return
	}
	if *smoke {
		if *run != "" || *full {
			// The smoke sweep is its own mode; silently dropping a
			// requested experiment would let a CI script look green while
			// the experiment never ran.
			fmt.Fprintln(os.Stderr, "error: -smoke cannot be combined with -run/-full or a positional experiment id")
			os.Exit(2)
		}
		runSmoke(*jsonOut)
		return
	}
	if *run == "" {
		printIndex()
		return
	}
	opts := experiments.Options{Quick: !*full}

	var collected []*experiments.Result
	emit := func(res *experiments.Result) {
		if *jsonOut {
			collected = append(collected, res)
			return
		}
		fmt.Printf("=== %s — %s ===\n%s\n", res.ID, res.Title, res.Text)
	}
	flush := func() {
		if *jsonOut {
			emitJSON(collected)
		}
	}
	if strings.EqualFold(*run, "all") {
		results, err := experiments.RunAll(opts)
		for _, res := range results {
			emit(res)
		}
		flush()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	res, err := experiments.Run(*run, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	emit(res)
	flush()
}

// smokeSpecs is the CI smoke grid: a tiny two-node workload crossed over
// every topology×codec corner, so a wiring regression in any corner of the
// scenario engine (flat/hier × uncompressed/hybrid) fails the quick gate
// in seconds. Every cell reports both clocks: the synchronous bucket total
// and the overlapped makespan.
func smokeSpecs() []scenario.Spec {
	base := scenario.Spec{
		Name: "smoke", Dataset: "kaggle", Scale: 8000, Dim: 8,
		Ranks: 8, Batch: 64, Steps: 2, Eval: 128,
		BottomMLP: []int{16, 8}, TopMLP: []int{16, 8},
		ErrorBound: 0.02,
	}
	specs := scenario.Axes{
		Base:       base,
		Topologies: []string{"flat", "hier"},
		Codecs:     []string{"none", "hybrid"},
	}.Expand()
	for i := range specs {
		specs[i].Name = fmt.Sprintf("smoke-%s-%s", specs[i].Topology, specs[i].Codec)
	}
	return specs
}

// runSmoke executes the smoke grid and prints one verdict line per cell
// (or the full scenario.Results as JSON).
func runSmoke(jsonOut bool) {
	specs := smokeSpecs()
	results, err := scenario.Sweep(specs)
	if jsonOut {
		emitJSON(results)
	} else {
		for _, res := range results {
			if res == nil {
				continue
			}
			fmt.Printf("%-20s loss %.4f  acc %.3f  CR %5.1fx  sim %9v  overlapped %9v  wall %v\n",
				res.Spec.Name, res.Losses[len(res.Losses)-1], res.Accuracy, res.CompressionRatio,
				res.SimTime.Total().Round(time.Microsecond), res.OverlappedSimTime.Round(time.Microsecond),
				res.WallClock.Round(time.Millisecond))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if !jsonOut {
		fmt.Printf("smoke sweep: %d scenarios OK\n", len(results))
	}
}

// emitJSON writes any result set as indented JSON on stdout (the
// bench-artifact flow ingests this).
func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// printIndex renders the registry as an aligned table, the no-argument
// default so the tool is self-describing.
func printIndex() {
	idx := experiments.Index()
	width := len("ID")
	for _, e := range idx {
		if len(e.ID) > width {
			width = len(e.ID)
		}
	}
	fmt.Printf("%-*s  %s\n", width, "ID", "Reproduces")
	for _, e := range idx {
		fmt.Printf("%-*s  %s\n", width, e.ID, e.Title)
	}
	fmt.Printf("\nrun one with: experiments <id> (add -full for paper-scale workloads), or -run all\n")
}
