package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, whose keys are fixed by the
// driver's contract.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[key]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", key)
		}
		delete(top, key)
	}
	for key := range top {
		t.Errorf("BENCHMARK.json has a key %q the contract does not know", key)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to the metric and workload tables
// of the harness, name for name, and to the limits of the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	f := loadBenchmarkFile(t)
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the harness", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.name)
		}
	}
	if len(f.EndToEnd) != len(gatedMetrics) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d gated in the harness", len(f.EndToEnd), len(gatedMetrics))
	}
	hasSetup := false
	for i, d := range gatedMetrics {
		got := f.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the harness has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	layer := append(append([]metricDef(nil), scopedMetrics...), layerMetrics...)
	if len(f.PerLayer) != len(layer) || len(layer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the harness (at most 128)", len(f.PerLayer), len(layer))
	}
	for i, d := range layer {
		got := f.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the harness has %+v", i, got, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), gatedMetrics...), layer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (%q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
}

func smokeConfig(t *testing.T, seed uint64) *config {
	return &config{seed: seed, scale: 0.01, setups: 1, callers: min(runtime.NumCPU(), 4), outDir: t.TempDir()}
}

// TestSmoke runs every workload at 1% size, both passes, and checks the
// result schema, that the driver's line carries exactly the names of
// BENCHMARK.json, and that the exact metrics repeat bit for bit under one
// seed and move under another. The TCP workload opens sockets, so -short
// leaves it out.
func TestSmoke(t *testing.T) {
	selected := workloads
	if testing.Short() {
		selected = nil
		for _, w := range workloads {
			if w.name != trainTCP2.name {
				selected = append(selected, w)
			}
		}
	}
	first, err := runAll(selected, smokeConfig(t, 1), "both")
	if err != nil {
		t.Fatal(err)
	}
	again, err := runAll(selected, smokeConfig(t, 1), "0")
	if err != nil {
		t.Fatal(err)
	}
	other, err := runAll(selected, smokeConfig(t, 2), "0")
	if err != nil {
		t.Fatal(err)
	}

	f := loadBenchmarkFile(t)
	for i, w := range first.Workloads {
		if !w.Correct || len(w.Failures) > 0 {
			t.Errorf("%s: failed checks %v", w.Name, w.Failures)
		}
		for _, ph := range []string{"warm", "timed", "traced"} {
			c, ok := w.Phases[ph]
			if !ok || c.Attempted < 1 || c.Succeeded != c.Attempted || c.Failed != 0 {
				t.Errorf("%s: phase %s = %+v", w.Name, ph, c)
			}
		}
		for _, d := range gatedMetrics {
			if v := w.EndToEnd[d.Name]; !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.Name, d.Name, v, d.Unit)
			}
		}
		for name, v := range w.EndToEnd {
			if !nameRE.MatchString(name) || !finite(v.Value) {
				t.Errorf("%s: end-to-end metric %q = %v", w.Name, name, v.Value)
			}
		}
		for name, v := range w.PerLayer {
			if !nameRE.MatchString(name) || !finite(v.Value) {
				t.Errorf("%s: per-layer metric %q = %v", w.Name, name, v.Value)
			}
		}

		// The driver's view: exactly the names BENCHMARK.json lists.
		for _, trace := range []string{"0", "1"} {
			var line struct {
				Correct   *bool                      `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(w.driverLine(trace)), &line); err != nil {
				t.Fatal(err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s: driver line %s", w.Name, w.driverLine(trace))
			}
			want := map[string]bool{}
			if trace == "0" {
				for _, m := range f.EndToEnd {
					want[m.Name] = true
				}
			} else {
				for _, m := range f.PerLayer {
					want[m.Name] = true
				}
			}
			for name := range line.Metrics {
				if !want[name] {
					t.Errorf("%s -trace %s prints %q, which BENCHMARK.json does not list", w.Name, trace, name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s -trace %s does not print %q, which BENCHMARK.json lists", w.Name, trace, name)
			}
		}

		moved := false
		for name := range exactMetrics { // deterministic under -smoke's fixed op counts
			a, b, c := w.EndToEnd[name].Value, again.Workloads[i].EndToEnd[name].Value, other.Workloads[i].EndToEnd[name].Value
			if a != b {
				t.Errorf("%s: %s = %v, then %v under the same seed", w.Name, name, a, b)
			}
			moved = moved || a != c
		}
		if !moved {
			t.Errorf("%s: no exact metric changed between -seed 1 and -seed 2", w.Name)
		}
	}
}

// TestCompare checks the three verdicts of -compare on hand-made values.
func TestCompare(t *testing.T) {
	rate := metricDef{"rate", "1/s", "higher", 0.10}
	steady := []float64{99, 100, 100, 100, 101}
	for _, c := range []struct {
		a, b value
		want string
	}{
		{value{Value: 100, Segments: steady}, value{Value: 95, Segments: steady}, "ok"},
		{value{Value: 100, Segments: steady}, value{Value: 85, Segments: steady}, "worse"},
		{value{Value: 100, Segments: steady}, value{Value: 130, Segments: steady}, "ok"},
		{value{Value: 100, Segments: []float64{70, 90, 100, 110, 130}}, value{Value: 85, Segments: steady}, "unresolved"},
	} {
		if _, got := verdict(rate, c.a, c.b, true); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
	if _, got := verdict(metricDef{"failed_share", "ratio", "lower", 0}, value{}, value{Value: 0.001}, true); got != "worse" {
		t.Errorf("a new failure is %s, want worse", got)
	}
	ratio := metricDef{"compression_ratio", "x", "higher", exactBound}
	if _, got := verdict(ratio, value{Value: 100}, value{Value: 98}, true); got != "worse" {
		t.Errorf("an exact metric 2%% down on the same inputs is %s, want worse", got)
	}
	if _, got := verdict(ratio, value{Value: 100}, value{Value: 98}, false); got != "unresolved" {
		t.Errorf("an exact metric on different inputs is %s, want unresolved", got)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; Python's statistics.quantiles gives 1.5, 4.5", q1, q3)
	}
}
