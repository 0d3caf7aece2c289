package scenario

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dlrmcomp/internal/profileutil"
)

// Result is one completed scenario.
type Result struct {
	// Spec is the resolved scenario that produced the result.
	Spec Spec `json:"spec"`
	// Losses is the per-step training loss curve.
	Losses []float32 `json:"losses,omitempty"`
	// Accuracy and LogLoss are the post-training eval metrics (Spec.Eval > 0).
	Accuracy float64 `json:"accuracy,omitempty"`
	LogLoss  float64 `json:"logloss,omitempty"`
	// CompressionRatio is raw/wire bytes of all codec'd forward all-to-all
	// traffic (1 when uncompressed).
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
	// SimTime is the simulated time breakdown by bucket.
	SimTime profileutil.Breakdown `json:"sim_time,omitempty"`
	// OverlappedSimTime is the same steps on the trainer's overlapped clock
	// (dist.Trainer.OverlappedSimTime), summed over the segments of an
	// elastic run; SimTime.Total() is their synchronous time.
	OverlappedSimTime time.Duration `json:"overlapped_sim_time,omitempty"`
	// Offline reports the L/M/S table counts when the offline
	// classification ran.
	Offline *OfflineCounts `json:"offline,omitempty"`
	// Reshards reports the elastic rank-set changes an event-bearing fault
	// plan caused, in event order.
	Reshards []ReshardReport `json:"reshards,omitempty"`
	// Checkpoints reports the checkpoint activity (periodic saves plus the
	// segment-boundary saves of an elastic run).
	Checkpoints *CheckpointReport `json:"checkpoints,omitempty"`
	// WallClock is how long the scenario took for real. It is the one
	// nondeterministic field: determinism comparisons must ignore it.
	WallClock time.Duration `json:"wall_clock,omitempty"`
}

// ReshardReport is one elastic world-size change.
type ReshardReport struct {
	// Step is the training step before which the rank set changed.
	Step int `json:"step"`
	// FromRanks and ToRanks are the world sizes on each side.
	FromRanks int `json:"from_ranks"`
	ToRanks   int `json:"to_ranks"`
	// MovedTables and MovedBytes size the round-robin redistribution the
	// change caused (charged to the "reshard" sim-time bucket).
	MovedTables int   `json:"moved_tables"`
	MovedBytes  int64 `json:"moved_bytes"`
}

// CheckpointReport sums a run's checkpoint traffic.
type CheckpointReport struct {
	// Count is how many checkpoints were saved.
	Count int `json:"count"`
	// Bytes sums the written checkpoint sizes across all saves.
	Bytes int64 `json:"bytes"`
}

// OfflineCounts are the table counts per error-bound class.
type OfflineCounts struct {
	L int `json:"l"`
	M int `json:"m"`
	S int `json:"s"`
}

// Run builds and executes one scenario.
func Run(s Spec) (*Result, error) {
	b, err := s.Build()
	if err != nil {
		return nil, err
	}
	return b.Run()
}

// sweepWorkers, when positive, replaces GOMAXPROCS as the pool width.
// Only tests set it, to prove the results do not depend on the width.
var sweepWorkers int

// Sweep runs every spec on a pool of min(GOMAXPROCS, len(specs)) workers
// and returns the results in spec order. Results are bit-identical at any
// pool width: every scenario seeds its own generator and model from its
// Spec alone. A failed scenario leaves a nil slot in the results and
// contributes one error to the joined return error, so one bad cell does
// not discard the rest of the grid.
func Sweep(specs []Spec) ([]*Result, error) {
	workers := runtime.GOMAXPROCS(0)
	if sweepWorkers > 0 {
		workers = sweepWorkers
	}
	workers = min(workers, len(specs))
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r, err := Run(specs[i])
				if err != nil {
					name := specs[i].Name
					if name == "" {
						name = fmt.Sprintf("#%d", i)
					}
					errs[i] = fmt.Errorf("scenario %s: %w", name, err)
					continue
				}
				results[i] = r
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, errors.Join(errs...)
}

// Axes expands per-axis value lists into the cross product of Specs: every
// listed axis replaces the corresponding Base field; an empty axis keeps
// Base's value. Expansion order is fixed and documented — Datasets
// outermost, then Ranks, Topologies, Codecs, ErrorBounds, Schedules
// innermost — so sweep output rows land in a predictable order.
type Axes struct {
	Base        Spec      `json:"base"`
	Datasets    []string  `json:"datasets,omitempty"`
	Ranks       []int     `json:"ranks,omitempty"`
	Topologies  []string  `json:"topologies,omitempty"`
	Codecs      []string  `json:"codecs,omitempty"`
	ErrorBounds []float64 `json:"ebs,omitempty"`
	Schedules   []string  `json:"schedules,omitempty"`
}

// expandAxis crosses the current spec list with one axis.
func expandAxis[T any](in []Spec, vals []T, set func(*Spec, T)) []Spec {
	if len(vals) == 0 {
		return in
	}
	out := make([]Spec, 0, len(in)*len(vals))
	for _, s := range in {
		for _, v := range vals {
			c := s
			set(&c, v)
			out = append(out, c)
		}
	}
	return out
}

// Expand returns the cross product of the axes over Base.
func (a Axes) Expand() []Spec {
	out := []Spec{a.Base}
	out = expandAxis(out, a.Datasets, func(s *Spec, v string) { s.Dataset = v })
	out = expandAxis(out, a.Ranks, func(s *Spec, v int) { s.Ranks = v })
	out = expandAxis(out, a.Topologies, func(s *Spec, v string) { s.Topology = v })
	out = expandAxis(out, a.Codecs, func(s *Spec, v string) { s.Codec = v })
	out = expandAxis(out, a.ErrorBounds, func(s *Spec, v float64) { s.ErrorBound = v })
	out = expandAxis(out, a.Schedules, func(s *Spec, v string) { s.Schedule = v })
	return out
}
