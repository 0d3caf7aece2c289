// Command bench is the repository's one benchmark: six named workloads over
// the codec, the trainer (in process and over loopback TCP) and the serving
// tier, each run untraced for its end-to-end metrics and traced for its
// per-layer metrics. Every layer is measured from outside, by timing calls
// into its public functions and reading the accessors it already exports.
//
//	bench                         all workloads, both passes, fixed op counts
//	bench -workload a,b -seed 2   a subset, another input seed
//	bench -smoke                  every workload at 1% size
//	bench -compare A.json B.json  apply the regression bounds to two result files
//	bench -workload w -seed n -seconds s -trace 0|1
//	                              one pass of one workload, as BENCHMARK.json's
//	                              driver runs it; the last line is one JSON object
//
// Results go to <out>/results.json and one <out>/trace-<workload>.json per
// traced workload. See README.md for the workloads, the metrics and how the
// per-layer numbers are derived.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

var workloads = []workload{codecLookups, trainComm8, trainDense1, trainTCP2, serveOnlineZipf, serveBatchCold}

// meta records what a results file was measured on and with.
type meta struct {
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Trace      string  `json:"trace"`
	Callers    int     `json:"callers"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
}

// workloadResult is one workload's entry in results.json. Phases holds the
// op counts: warm and timed of the untraced pass, traced of the traced one.
type workloadResult struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Correct bool   `json:"correct"`
	// Attempted counts the timed ops of the passes that ran; Failed the
	// ones that failed plus the correctness checks that did.
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Failures  []string              `json:"failures,omitempty"`
	Phases    map[string]phaseCount `json:"phases"`
	EndToEnd  metricSet             `json:"end_to_end"`
	PerLayer  metricSet             `json:"per_layer,omitempty"`
}

type results struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

// gitCommit is the revision the binary was built from, when the toolchain
// could stamp it (a checkout that is not a git repository has none).
func gitCommit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// runWorkload runs the passes trace asks for: "0" the full untraced pass,
// "1" the traced pass, "both" one after the other. End-to-end metrics come
// from the untraced pass whenever there is one.
func runWorkload(w workload, cfg *config, trace string) (workloadResult, error) {
	res := workloadResult{Name: w.name, Why: w.why, Phases: map[string]phaseCount{}}
	if trace != "1" {
		un, err := w.run(&pass{cfg: cfg, share: 1, setups: cfg.setups})
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Phases["warm"], res.Phases["timed"] = un.warm, un.timed
		res.EndToEnd, res.Failures = un.e2e, un.failures
		res.Attempted, res.Failed = un.timed.Attempted, un.timed.Failed+len(un.failures)
	}
	if trace != "0" {
		tr := newTracer()
		traced, err := w.run(&pass{cfg: cfg, share: 0.25, setups: 1, tr: tr})
		if err != nil {
			return res, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		traced.layer.set("trace.overhead_share", traced.overhead)
		traced.layer.set("trace.spans", float64(tr.count()))
		res.Phases["traced"], res.PerLayer = traced.timed, traced.layer
		if res.EndToEnd == nil {
			res.EndToEnd = traced.e2e
		}
		res.Failures = append(res.Failures, traced.failures...)
		res.Attempted += traced.timed.Attempted
		res.Failed += traced.timed.Failed + len(traced.failures)
		if err := tr.write(cfg.outDir, w.name, cfg.seed, traced.layer); err != nil {
			return res, err
		}
	}
	res.EndToEnd.set("failed_share", float64(res.Failed)/float64(res.Attempted))
	res.Correct = res.Failed == 0
	return res, nil
}

func printMetrics(title string, defs []metricDef, m metricSet) {
	fmt.Printf("  %s\n", title)
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Printf("    %-38s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

func (r workloadResult) print() {
	fmt.Printf("\n== %s: %s\n", r.Name, r.Why)
	for _, ph := range []string{"warm", "timed", "traced"} {
		if c, ok := r.Phases[ph]; ok {
			fmt.Printf("  %-6s phase: %d attempted, %d succeeded, %d failed\n", ph, c.Attempted, c.Succeeded, c.Failed)
		}
	}
	printMetrics("end-to-end (untraced pass)", append(append([]metricDef(nil), gatedMetrics...), scopedMetrics...), r.EndToEnd)
	if r.PerLayer != nil {
		printMetrics("per-layer (traced pass)", layerMetrics, r.PerLayer)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED CHECK: %s\n", f)
	}
}

// driverLine is the one-object summary BENCHMARK.json's driver reads from
// the last line: the gated end-to-end metrics of an untraced run, or the
// per-layer list (scoped end-to-end metrics included) of a traced one. A
// metric the workload does not have reads 0.
func (r workloadResult) driverLine(trace string) string {
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]entry{}
	put := func(defs []metricDef, m metricSet) {
		for _, d := range defs {
			metrics[d.Name] = entry{m[d.Name].Value, d.Unit}
		}
	}
	if trace == "0" {
		put(gatedMetrics, r.EndToEnd)
	} else {
		put(scopedMetrics, r.EndToEnd)
		put(layerMetrics, r.PerLayer)
	}
	line, err := json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == n })
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		out = append(out, workloads[i])
	}
	return out, nil
}

// runAll runs the selected workloads one after the other and prints each
// one's metrics by name as it finishes.
func runAll(selected []workload, cfg *config, trace string) (results, error) {
	out := results{Meta: meta{
		Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: trace, Callers: cfg.callers,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitCommit: gitCommit(),
	}}
	for _, w := range selected {
		res, err := runWorkload(w, cfg, trace)
		if err != nil {
			return out, err
		}
		res.print()
		out.Workloads = append(out.Workloads, res)
	}
	return out, nil
}

func run() error {
	names := flag.String("workload", "", "comma-separated workloads to run (default all)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs: the dataset's Zipf stream, model init, and the harness's uniform draws")
	seconds := flag.Float64("seconds", 0, "measure each full timed phase for this long; 0 runs the fixed op counts, which makes the exact metrics repeat bit for bit")
	trace := flag.String("trace", "both", "passes to run: 0 untraced (end-to-end), 1 traced (per-layer), both")
	smoke := flag.Bool("smoke", false, "run every workload at 1% of its op counts with one set-up")
	compare := flag.Bool("compare", false, "compare two result files given as arguments and exit non-zero on a regression")
	outDir := flag.String("out", "out", "directory for results.json and the trace files")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: bench -compare A.json B.json")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}
	if *seed == 0 {
		return fmt.Errorf("-seed 0 would select the dataset's built-in seed; pass a positive seed")
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		return err
	}
	cfg := &config{seed: *seed, seconds: *seconds, scale: 1, setups: 3, callers: min(runtime.NumCPU(), 4), outDir: *outDir}
	if *smoke {
		cfg.seconds, cfg.scale, cfg.setups = 0, 0.01, 1
	}
	out, err := runAll(selected, cfg, *trace)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "results.json"), out); err != nil {
		return err
	}
	if len(selected) == 1 && *trace != "both" {
		fmt.Println(out.Workloads[0].driverLine(*trace))
	}
	for _, w := range out.Workloads {
		if !w.Correct {
			return fmt.Errorf("%s: a correctness check or an op failed; see FAILED CHECK above and failed_share", w.Name)
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
