package scenario

import (
	"bytes"
	"fmt"
	"time"

	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/profileutil"
)

// This file runs every scenario, with its in-run checkpointing. A fault
// plan's drop/rejoin events slice the run into segments (a plan with no
// events is one segment): before the step an event names, the runner
// checkpoints the trainer to memory, tears it down, rebuilds it at the
// surviving world size (which reshards the tables round-robin, since
// ownership is positional), restores the checkpoint, and charges the
// modelled redistribution traffic to the "reshard" sim-time bucket. The
// batch stream and the loss curve run straight through the boundaries;
// sim-time buckets and the overlapped clock accumulate across segments.

// checkpointer owns a run's in-memory checkpoint buffer and traffic
// accounting. The zero spec (nil) checkpointer only serves the elastic
// boundary saves; a CheckpointSpec adds the periodic saves and verify.
type checkpointer struct {
	spec *CheckpointSpec
	rep  CheckpointReport
	buf  bytes.Buffer
}

func newCheckpointer(spec *CheckpointSpec) *checkpointer {
	return &checkpointer{spec: spec}
}

// save checkpoints tr into the (reused) buffer and accounts the traffic.
func (c *checkpointer) save(tr *dist.Trainer) error {
	c.buf.Reset()
	stats, err := tr.SaveCheckpoint(&c.buf, dist.CheckpointOptions{})
	if err != nil {
		return fmt.Errorf("scenario: checkpoint at step %d: %w", tr.Iter(), err)
	}
	c.rep.Count++
	c.rep.Bytes += stats.Bytes
	return nil
}

// maybe saves a periodic checkpoint when the trainer's completed-step
// count lands on the Every boundary, and — when Verify is set — restores
// it straight back. The restore overwrites live state with its own
// round-trip, so a divergence between a verified and an unverified run is
// a save/restore fidelity bug, which is exactly what the parity tests
// use it to detect.
func (c *checkpointer) maybe(tr *dist.Trainer) error {
	if c.spec == nil || c.spec.Every <= 0 || tr.Iter()%c.spec.Every != 0 {
		return nil
	}
	if err := c.save(tr); err != nil {
		return err
	}
	if c.spec.Verify {
		if err := tr.RestoreCheckpoint(bytes.NewReader(c.buf.Bytes())); err != nil {
			return fmt.Errorf("scenario: verify checkpoint at step %d: %w", tr.Iter(), err)
		}
	}
	return nil
}

// report returns the accumulated accounting, or nil when nothing saved.
func (c *checkpointer) report() *CheckpointReport {
	if c.rep.Count == 0 {
		return nil
	}
	r := c.rep
	return &r
}

// applyEvent returns the live set (sorted original rank ids) after one
// drop or rejoin. Validation already simulated the sequence, so the event
// is known to be consistent with the set.
func applyEvent(live []int, ev cluster.FaultEvent) []int {
	out := make([]int, 0, len(live)+1)
	switch ev.Kind {
	case cluster.EventDrop:
		for _, r := range live {
			if r != ev.Rank {
				out = append(out, r)
			}
		}
	case cluster.EventRejoin:
		inserted := false
		for _, r := range live {
			if !inserted && ev.Rank < r {
				out = append(out, ev.Rank)
				inserted = true
			}
			out = append(out, r)
		}
		if !inserted {
			out = append(out, ev.Rank)
		}
	}
	return out
}

// rebuildAt builds the segment trainer for the surviving rank set: the
// same scenario at world len(live), armed with the fault plan projected
// onto the survivors, and — when adaptive — a uniform placeholder
// controller whose state the checkpoint restore overwrites (re-running
// the offline classification would consume generator state and redo work
// the checkpoint already carries).
func (b *Built) rebuildAt(live []int, step int) (*dist.Trainer, error) {
	rs := b.Spec
	seg := rs
	seg.Ranks = len(live)
	proj := rs.Faults.ForLive(live)
	if proj != nil {
		// Offset the jitter stream by the boundary step so each segment
		// draws fresh — still fully deterministic — multipliers instead of
		// replaying the first segment's.
		proj.Seed += uint64(step)
	}
	seg.Faults = proj
	cfg := modelConfig(rs, b.Data)
	opts := trainerOptions(seg, cfg, b.Net, nil)
	if rs.Adaptive {
		classes := make([]adapt.Class, len(cfg.TableSizes))
		for i := range classes {
			classes[i] = adapt.ClassMedium
		}
		sched, err := adapt.ParseSchedule(rs.Schedule)
		if err != nil {
			return nil, err
		}
		ctrl, err := adapt.NewController(classes, adapt.PaperEBConfig(), sched, rs.DecayPhase, rs.DecayFactor)
		if err != nil {
			return nil, err
		}
		opts.Controller = ctrl
	}
	return dist.NewTrainer(opts)
}

// Run executes the built scenario as a sequence of fixed-world segments
// (one when the fault plan schedules no events), then the optional
// evaluation and the metric harvest. Validation guarantees an event-bearing
// spec is in-process, every event step is inside (0, Steps), and the
// simulated event sequence never empties the world.
func (b *Built) Run() (*Result, error) {
	start := time.Now()
	rs := b.Spec
	res := &Result{Spec: rs, SimTime: profileutil.Breakdown{}}
	ck := newCheckpointer(rs.Checkpoint)
	var events []cluster.FaultEvent
	if rs.Faults != nil {
		events = rs.Faults.Events
	}

	live := make([]int, rs.Ranks)
	for i := range live {
		live[i] = i
	}
	tr := b.Trainer
	harvest := func() {
		for k, v := range tr.Cluster().SimTimes() {
			res.SimTime[k] += v
		}
		res.OverlappedSimTime += tr.OverlappedSimTime()
	}

	res.Losses = make([]float32, 0, rs.Steps)
	next := 0
	for step := 0; step < rs.Steps; step++ {
		if next < len(events) && events[next].Step <= step {
			oldWorld := len(live)
			for next < len(events) && events[next].Step <= step {
				live = applyEvent(live, events[next])
				next++
			}
			if err := ck.save(tr); err != nil {
				return nil, err
			}
			harvest()
			if err := tr.Close(); err != nil {
				return nil, fmt.Errorf("scenario: close at elastic boundary (step %d): %w", step, err)
			}
			nt, err := b.rebuildAt(live, step)
			if err != nil {
				return nil, fmt.Errorf("scenario: rebuild at elastic boundary (step %d): %w", step, err)
			}
			tr = nt
			b.Trainer = tr
			if err := tr.RestoreCheckpoint(bytes.NewReader(ck.buf.Bytes())); err != nil {
				return nil, fmt.Errorf("scenario: restore at elastic boundary (step %d): %w", step, err)
			}
			rp, err := dist.PlanReshard(b.Data.Cardinalities, rs.Dim, oldWorld, len(live))
			if err != nil {
				return nil, err
			}
			tr.ChargeReshard(rp)
			res.Reshards = append(res.Reshards, ReshardReport{
				Step: step, FromRanks: oldWorld, ToRanks: len(live),
				MovedTables: len(rp.Moves), MovedBytes: rp.MovedBytes,
			})
		}
		loss, err := tr.Step(b.Gen.NextBatch(rs.Batch))
		if err != nil {
			return nil, err
		}
		res.Losses = append(res.Losses, loss)
		if err := ck.maybe(tr); err != nil {
			return nil, err
		}
	}
	harvest()
	if rs.Eval > 0 {
		res.Accuracy, res.LogLoss = tr.Evaluate(b.Gen.NextBatch(rs.Eval))
	}
	// The compression counters ride through every checkpoint restore, so
	// the final trainer's ratio covers the whole run.
	res.CompressionRatio = tr.CompressionRatio()
	res.Checkpoints = ck.report()
	if b.Offline != nil {
		l, m, s := b.Offline.ClassCounts()
		res.Offline = &OfflineCounts{L: l, M: m, S: s}
	}
	res.WallClock = time.Since(start)
	return res, nil
}
