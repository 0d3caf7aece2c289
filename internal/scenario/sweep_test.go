package scenario

import (
	"reflect"
	"strings"
	"testing"

	"dlrmcomp/internal/testutil"
)

func TestAxesExpand(t *testing.T) {
	a := Axes{
		Base:       Spec{Steps: 2, ErrorBound: 0.02},
		Datasets:   []string{"kaggle", "terabyte"},
		Ranks:      []int{4, 8},
		Topologies: []string{"flat", "hier"},
		Codecs:     []string{"none", "hybrid", "fp16"},
	}
	specs := a.Expand()
	if len(specs) != 2*2*2*3 {
		t.Fatalf("expanded %d specs, want %d", len(specs), 2*2*2*3)
	}
	// Fixed nesting: Datasets outermost … Codecs innermost.
	if specs[0].Dataset != "kaggle" || specs[0].Ranks != 4 || specs[0].Topology != "flat" || specs[0].Codec != "none" {
		t.Fatalf("first cell %+v", specs[0])
	}
	if specs[1].Codec != "hybrid" {
		t.Fatalf("codec must vary innermost, got %+v", specs[1])
	}
	if last := specs[len(specs)-1]; last.Dataset != "terabyte" || last.Ranks != 8 || last.Topology != "hier" || last.Codec != "fp16" {
		t.Fatalf("last cell %+v", last)
	}
	for i, s := range specs {
		if s.Steps != 2 || s.ErrorBound != 0.02 {
			t.Fatalf("cell %d lost base fields: %+v", i, s)
		}
	}
	// An empty axis keeps the base value.
	if got := (Axes{Base: Spec{Dataset: "terabyte"}}).Expand(); len(got) != 1 || got[0].Dataset != "terabyte" {
		t.Fatalf("no-axis expansion: %+v", got)
	}
}

// sweepSpecs is a small topology×codec grid for the runner tests.
func sweepSpecs() []Spec {
	base := tinySpec()
	base.Steps = 2
	base.ErrorBound = 0.02
	base.Ranks = 8
	return Axes{
		Base:       base,
		Topologies: []string{"flat", "hier"},
		Codecs:     []string{"none", "hybrid"},
	}.Expand()
}

// sweepAt runs Sweep on a pool of exactly workers goroutines.
func sweepAt(workers int, specs []Spec) ([]*Result, error) {
	sweepWorkers = workers
	defer func() { sweepWorkers = 0 }()
	return Sweep(specs)
}

// TestSweepDeterministicAcrossWorkers is the parallel-runner contract:
// every scenario seeds its own generator and model from its Spec alone, so
// the Results — losses, sim-time buckets, compression ratios, eval metrics
// — are bit-identical at any worker count. WallClock is the documented
// exception and is zeroed before comparing.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	specs := sweepSpecs()
	var baseline []*Result
	for _, workers := range []int{1, 2, 4} {
		results, err := sweepAt(workers, specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, r := range results {
			if r == nil {
				t.Fatalf("workers=%d: missing result", workers)
			}
			r.WallClock = 0
		}
		if baseline == nil {
			baseline = results
			continue
		}
		if !reflect.DeepEqual(results, baseline) {
			t.Fatalf("workers=%d produced different results than workers=1", workers)
		}
	}
}

// TestSweepParityAcrossWidths pins that the intra-rank width the trainer
// derives from the machine cannot change a sweep's results: the 8-rank
// cells run at width 1 under GOMAXPROCS 8 and at width 2 under 16, and the
// two sweeps must agree bit for bit, modulo WallClock.
func TestSweepParityAcrossWidths(t *testing.T) {
	specs := sweepSpecs()[:2]
	sweep := func(procs int) []*Result {
		testutil.SetGOMAXPROCS(t, procs)
		results, err := sweepAt(1, specs)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for _, r := range results {
			r.WallClock = 0
		}
		return results
	}
	narrow, wide := sweep(8), sweep(16)
	for i := range narrow {
		if !reflect.DeepEqual(wide[i], narrow[i]) {
			t.Fatalf("cell %d: the width-2 sweep diverged from the width-1 sweep", i)
		}
	}
}

func TestSweepKeepsGoodCellsOnError(t *testing.T) {
	bad := tinySpec()
	bad.Codec = "zstd"
	bad.Name = "bad-cell"
	specs := []Spec{sweepSpecs()[0], bad, sweepSpecs()[1]}
	results, err := sweepAt(2, specs)
	if err == nil || !strings.Contains(err.Error(), "bad-cell") {
		t.Fatalf("want an error naming the bad cell, got %v", err)
	}
	if results[0] == nil || results[2] == nil {
		t.Fatal("good cells must survive a bad one")
	}
	if results[1] != nil {
		t.Fatal("bad cell must leave a nil slot")
	}
}
