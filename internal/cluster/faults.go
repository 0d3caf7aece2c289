package cluster

import (
	"fmt"
	"time"

	"dlrmcomp/internal/netmodel"
)

// This file implements deterministic fault injection for the simulated
// cluster. A FaultPlan declares how an unhealthy machine misbehaves —
// per-collective latency jitter, per-rank slow multipliers, and scheduled
// rank drop/rejoin events — and SetFaultPlan arms a cluster with it.
//
// The injector scales simulated cost only, never payloads: a collective's
// math is untouched, so losses under any fault plan are bit-identical to
// the healthy run (the resume-parity tests lean on this). Scaling happens
// at the single point where cost is known — rank 0's cost computation in
// IAllToAllV / IAllReduceSum — so both transports and the synchronous and
// nonblocking paths all pick it up, and the inflated time lands in the
// existing accounting buckets.
//
// Jitter is deterministic: the multiplier of the k-th cost-bearing
// collective is a pure function of (Seed, k), with the sequence counter
// advanced only on rank 0's cost path. Identical runs therefore charge
// identical sim time, which keeps the transport-conformance invariant
// (bit-identical rank-0 buckets across inproc and tcp) intact under
// faults.
//
// Drop/rejoin events are not consumed here — the collectives are
// fleet-wide and the rank set of a live Cluster is fixed. The scenario
// layer's elastic runner consumes Events as segment boundaries
// (checkpoint → rebuild at the new world size → restore → reshard) and
// arms each segment's cluster with the plan projected onto the surviving
// ranks via ForLive.

// Bounds on the fault knobs. They are far beyond any physically plausible
// setting; their purpose is to keep scaled durations inside the int64
// nanosecond range so a fuzzed plan cannot overflow the simulated clock.
const (
	// MaxJitter bounds FaultPlan.Jitter.
	MaxJitter = 1e3
	// MaxSlowFactor bounds SlowRank.Factor.
	MaxSlowFactor = 1e6
)

// FaultPlan declares deterministic failure injection for a training run.
// The zero value (and nil) is a healthy cluster. Plans are JSON-shaped so
// scenario specs can carry them verbatim.
type FaultPlan struct {
	// Seed keys the jitter stream. Two runs with equal seeds draw
	// identical multipliers; the zero seed is as valid as any other.
	Seed uint64 `json:"seed,omitempty"`
	// Jitter is the maximum fractional cost inflation per collective:
	// each cost-bearing collective is scaled by 1 + Jitter·u with u drawn
	// uniformly from [0,1) by a hash of (Seed, sequence number). Zero
	// disables jitter. Must be in [0, MaxJitter].
	Jitter float64 `json:"jitter,omitempty"`
	// Slow lists persistently slow ranks. A collective completes when its
	// slowest participant does, so the effective multiplier of every
	// collective is the maximum factor among live ranks.
	Slow []SlowRank `json:"slow,omitempty"`
	// Events schedules rank departures and returns, in non-decreasing
	// step order and original rank ids. The cluster ignores them (its
	// rank set is fixed); the scenario layer's elastic runner turns each
	// into a checkpoint/reshard boundary.
	Events []FaultEvent `json:"events,omitempty"`
}

// SlowRank marks one rank as a persistent straggler.
type SlowRank struct {
	// Rank is the straggler's id, in the original (pre-event) numbering.
	Rank int `json:"rank"`
	// Factor multiplies the cost of every collective the rank joins.
	// Must be in [1, MaxSlowFactor].
	Factor float64 `json:"factor"`
}

// FaultEvent is one scheduled change to the rank set.
type FaultEvent struct {
	// Step is the global training step before which the event fires.
	Step int `json:"step"`
	// Kind is "drop" (the rank leaves) or "rejoin" (a dropped rank
	// returns).
	Kind string `json:"kind"`
	// Rank is the affected rank in the original numbering.
	Rank int `json:"rank"`
}

// Event kinds.
const (
	EventDrop   = "drop"
	EventRejoin = "rejoin"
)

// Active reports whether the plan inflates any collective cost (jitter or
// slow ranks); events alone do not make a plan active at the cluster
// level.
func (p *FaultPlan) Active() bool {
	return p != nil && (p.Jitter > 0 || len(p.Slow) > 0)
}

// Validate checks the plan against a world of the given size. steps > 0
// additionally bounds event steps to (0, steps); pass 0 when the step
// horizon is unknown. The event sequence is simulated: drops must name
// live ranks, rejoins previously dropped ones, and the world must never
// empty.
func (p *FaultPlan) Validate(ranks, steps int) error {
	if p == nil {
		return nil
	}
	if ranks <= 0 {
		return fmt.Errorf("cluster: fault plan validated against %d ranks", ranks)
	}
	if p.Jitter < 0 || p.Jitter > MaxJitter {
		return fmt.Errorf("cluster: fault jitter %g outside [0, %g]", p.Jitter, float64(MaxJitter))
	}
	seen := make(map[int]bool, len(p.Slow))
	for _, s := range p.Slow {
		if s.Rank < 0 || s.Rank >= ranks {
			return fmt.Errorf("cluster: slow rank %d outside world of %d", s.Rank, ranks)
		}
		if seen[s.Rank] {
			return fmt.Errorf("cluster: slow rank %d listed twice", s.Rank)
		}
		seen[s.Rank] = true
		if s.Factor < 1 || s.Factor > MaxSlowFactor {
			return fmt.Errorf("cluster: slow factor %g for rank %d outside [1, %g]", s.Factor, s.Rank, float64(MaxSlowFactor))
		}
	}
	live := make([]bool, ranks)
	for i := range live {
		live[i] = true
	}
	alive := ranks
	prev := 0
	for i, ev := range p.Events {
		if ev.Rank < 0 || ev.Rank >= ranks {
			return fmt.Errorf("cluster: fault event %d names rank %d outside world of %d", i, ev.Rank, ranks)
		}
		if ev.Step < 1 {
			return fmt.Errorf("cluster: fault event %d fires at step %d; events fire before a step, so the earliest is 1", i, ev.Step)
		}
		if steps > 0 && ev.Step >= steps {
			return fmt.Errorf("cluster: fault event %d fires at step %d, at or past the run's %d steps", i, ev.Step, steps)
		}
		if ev.Step < prev {
			return fmt.Errorf("cluster: fault events out of order: step %d after step %d", ev.Step, prev)
		}
		prev = ev.Step
		switch ev.Kind {
		case EventDrop:
			if !live[ev.Rank] {
				return fmt.Errorf("cluster: fault event %d drops rank %d, which is already down", i, ev.Rank)
			}
			live[ev.Rank] = false
			if alive--; alive < 1 {
				return fmt.Errorf("cluster: fault event %d leaves no live ranks", i)
			}
		case EventRejoin:
			if live[ev.Rank] {
				return fmt.Errorf("cluster: fault event %d rejoins rank %d, which is still up", i, ev.Rank)
			}
			live[ev.Rank] = true
			alive++
		default:
			return fmt.Errorf("cluster: fault event %d has kind %q (want %q or %q)", i, ev.Kind, EventDrop, EventRejoin)
		}
	}
	return nil
}

// ForLive projects the plan onto a surviving rank set: live lists the
// original rank ids still present, in the order that assigns their new
// contiguous ids (live[i] runs as rank i). Slow entries for absent ranks
// vanish; events are dropped — the elastic driver consumes them. Returns
// nil when nothing in the plan touches the surviving set, so callers can
// hand the result straight to SetFaultPlan.
func (p *FaultPlan) ForLive(live []int) *FaultPlan {
	if p == nil {
		return nil
	}
	out := &FaultPlan{Seed: p.Seed, Jitter: p.Jitter}
	for newID, orig := range live {
		for _, s := range p.Slow {
			if s.Rank == orig {
				out.Slow = append(out.Slow, SlowRank{Rank: newID, Factor: s.Factor})
			}
		}
	}
	if !out.Active() {
		return nil
	}
	return out
}

// faultInjector is a cluster's armed fault state: the plan's knobs folded
// into the per-collective multiplier stream. The sequence counter advances
// only on rank 0's cost path, so the stream is identical across transports.
type faultInjector struct {
	seed    uint64
	jitter  float64
	slowMax float64 // max slow factor across present ranks, ≥ 1
	seq     uint64  // guarded by Cluster.mu
}

// SetFaultPlan arms the cluster with a fault plan, replacing any previous
// one and restarting the jitter sequence; nil disarms. The plan is
// validated against the cluster's world size (events, if any, are
// validated for shape but ignored — see FaultPlan.Events).
func (c *Cluster) SetFaultPlan(p *FaultPlan) error {
	if err := p.Validate(c.N, 0); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !p.Active() {
		c.faults = nil
		return nil
	}
	fi := &faultInjector{seed: p.Seed, jitter: p.Jitter, slowMax: 1}
	for _, s := range p.Slow {
		if s.Factor > fi.slowMax {
			fi.slowMax = s.Factor
		}
	}
	c.faults = fi
	return nil
}

// faultScale returns the multiplier for the next cost-bearing collective,
// or 1 when no plan is armed. Called only on rank 0's cost path.
func (c *Cluster) faultScale() float64 {
	c.mu.Lock()
	fi := c.faults
	var seq uint64
	if fi != nil {
		seq = fi.seq
		fi.seq++
	}
	c.mu.Unlock()
	if fi == nil {
		return 1
	}
	m := fi.slowMax
	if fi.jitter > 0 {
		m *= 1 + float64(fi.jitter*unitFloat(fi.seed, seq))
	}
	return m
}

// scaleDuration multiplies a duration by f (identity fast path for the
// healthy f == 1 case, so unfaulted runs charge bit-identical costs).
func scaleDuration(d time.Duration, f float64) time.Duration {
	if f == 1 {
		return d
	}
	return time.Duration(float64(d) * f)
}

// scaleLinkCost multiplies a link cost by f with the same identity fast
// path as scaleDuration.
func scaleLinkCost(c netmodel.LinkCost, f float64) netmodel.LinkCost {
	if f == 1 {
		return c
	}
	return c.Scale(f)
}

// unitFloat hashes (seed, seq) to a uniform float64 in [0, 1) with a
// splitmix64 finalizer — stateless, so the k-th draw is reproducible from
// the plan alone.
func unitFloat(seed, seq uint64) float64 {
	x := seed + (seq+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
