package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is how
// the benchmark's contract defines a spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		lo := min(max(int(math.Floor(pos)), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.75)
}

// spread is the distance between the quartiles of a metric's segment
// values as a share of their median; 0 for a metric without segments.
func spread(v value) float64 {
	if len(v.Segments) < 2 {
		return 0
	}
	q1, q3 := quartiles(v.Segments)
	return (q3 - q1) / median(v.Segments)
}

func loadResults(path string) (results, error) {
	var r results
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// boundFor is the bound -compare holds metric d to. A metric that is
// deterministic for a fixed seed and fixed op counts is held to exactBound
// when both files were run that way (sameInputs), and cannot be judged at
// all otherwise: ok is false.
func boundFor(d metricDef, sameInputs bool) (bound float64, ok bool) {
	if !exactMetrics[d.Name] {
		return d.Bound, true
	}
	return exactBound, sameInputs
}

// verdict judges metric d going from a to b: "worse" when b is worse than a
// by more than the bound, "unresolved" when the inputs differ for an exact
// metric or either run's own segments spread wider than the bound (so the
// medians cannot settle it), else "ok".
func verdict(d metricDef, a, b value, sameInputs bool) (change float64, status string) {
	change = (b.Value - a.Value) / a.Value
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	bound, judged := boundFor(d, sameInputs)
	switch {
	case d.Name == "failed_share":
		if b.Value > a.Value {
			return b.Value - a.Value, "worse"
		}
		return b.Value - a.Value, "ok"
	case d.Name == "alloc_kb_per_op" && math.Abs(b.Value-a.Value) < 1:
		return change, "ok" // differences under 1 KB are harness noise
	case !judged || max(spread(a), spread(b)) > bound:
		return change, "unresolved"
	case worse > bound:
		return change, "worse"
	}
	return change, "ok"
}

// compareFiles prints one row per workload and end-to-end metric of result
// files a (the base) and b, and returns an error when any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	sameInputs := a.Meta.Seed == b.Meta.Seed && a.Meta.Seconds == 0 && b.Meta.Seconds == 0 && a.Meta.Scale == b.Meta.Scale
	other := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		other[wl.Name] = wl
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tspread\tbound\tverdict\t")
	counts := map[string]int{}
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok {
			continue
		}
		for _, d := range append(append([]metricDef(nil), gatedMetrics...), scopedMetrics...) {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if va.Value == 0 && vb.Value == 0 && d.Name != "failed_share" {
				continue // the workload does not have this metric
			}
			change, status := verdict(d, va, vb, sameInputs)
			bound, _ := boundFor(d, sameInputs)
			counts[status]++
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\t\n",
				wa.Name, d.Name, va.Value, vb.Value, 100*change, 100*max(spread(va), spread(vb)), 100*bound, status)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d ok, %d unresolved, %d worse\n", counts["ok"], counts["unresolved"], counts["worse"])
	if counts["worse"] > 0 {
		return fmt.Errorf("%d metric(s) got worse by more than their bound", counts["worse"])
	}
	return nil
}
