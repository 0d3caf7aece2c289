package dist

import (
	"time"

	"dlrmcomp/internal/netmodel"
)

// This file implements the trainer's overlapped clock: every Step books
// its modelled component costs on a netmodel.Timeline with per-link
// occupancy, pipelining the forward all-to-all of batch k+1 behind the MLP
// compute of batch k.
//
// The math is executed in the synchronous order, and the clock is pure
// bookkeeping after a step succeeds, so losses, parameters, and every
// accounting bucket are what they would be without it. What the clock
// changes is how the modelled component costs compose into an end-to-end
// time: instead of summing serially (the bucket total), each component is
// reserved on its lane (device, intra link, inter link), so a transfer in
// flight on the NIC overlaps device compute, while two transfers
// contending for the same link serialize.
//
// The steady-state schedule per step k (device lane left, links right):
//
//	dev:  decompress(k-1) · lookup(k) · compress(k) · mlp+other(k-1)
//	link:                       └─ fwd a2a(k) ──────────────────────┐
//	link:  mlp done ─ bwd a2a(k-1) ─ allreduce(k-1)                 │
//	dev:  decompress(k) ◄───────────────────────────────────────────┘
//
// so the wire time of batch k's forward exchange hides under batch k-1's
// MLP (and its backward collectives), and the codec work of batch k hides
// under the head of its own transfer (the wire starts once the first
// per-destination chunk is compressed). The modelled prefetch assumes the
// owner-side gather of batch k may proceed while batch k-1's dense
// backward is still on the device — the standard DLRM prefetch discipline.
// The executed step awaits each collective as soon as it issues it; only
// the clock models them in flight.

// overlapClock is the trainer's overlapped clock. The compute half of the
// latest step waits in pending until the next step's prefetch is booked
// ahead of it; OverlappedSimTime books it on a copy.
type overlapClock struct {
	tl      netmodel.Timeline
	pending stepStats     // the latest step, its compute not yet booked
	fwdDone time.Duration // modelled completion of pending's forward transfer
	primed  bool          // pending holds a step
}

// book adds one completed step: its prefetch slots in under the previous
// step's compute, or starts cold on the first step.
func (c *overlapClock) book(st stepStats, ranks int) {
	if c.primed {
		c.fwdDone = c.compute(&c.pending, c.fwdDone, &st, ranks)
	} else {
		c.fwdDone = c.prefetch(&st, ranks)
		c.primed = true
	}
	c.pending = st
}

// end returns the makespan with the pending step's compute booked. The
// receiver is a copy, so reading the clock changes nothing.
func (c overlapClock) end(ranks int) time.Duration {
	if c.primed {
		c.compute(&c.pending, c.fwdDone, nil, ranks)
	}
	return c.tl.End()
}

// prefetch books a step's owner-side gather (lookup + compress) on the
// device lane and its forward all-to-all on the links, returning the
// modelled completion of the transfer. The wire starts once the first
// per-destination chunk is compressed, so all but 1/(ranks-1) of the codec
// time hides under the transfer itself.
func (c *overlapClock) prefetch(st *stepStats, ranks int) time.Duration {
	lookupDone := c.tl.ReserveDevice(0, st.lookup)
	compressDone := c.tl.ReserveDevice(lookupDone, st.compress)
	wireReady := compressDone
	if st.compress > 0 {
		chunks := max(ranks-1, 1)
		wireReady = compressDone - st.compress + st.compress/time.Duration(chunks)
	}
	return c.tl.ReserveLinkCost(wireReady, st.fwd)
}

// compute books the receive-and-compute half of the step whose forward
// transfer completed at fwdDone: decompress, then — before the MLP, so its
// wire time hides under it — the prefetch of next (when non-nil), then the
// MLP (+ other compute), the backward all-to-all, and the dense allreduce
// on the inter link. Returns the modelled completion of next's forward
// transfer (zero when next is nil).
func (c *overlapClock) compute(st *stepStats, fwdDone time.Duration, next *stepStats, ranks int) time.Duration {
	c.tl.ReserveDevice(fwdDone, st.decompress)
	var nextFwdDone time.Duration
	if next != nil {
		// The prefetch gather needs only the device, not this step's
		// inbound data, so it may run while the transfer is still in
		// flight (it slots in here, before the MLP).
		nextFwdDone = c.prefetch(next, ranks)
	}
	// The MLP consumes this step's lookups: it must wait for the transfer
	// even when there is no decompress reservation to carry that edge
	// (codec none ⇒ st.decompress == 0 ⇒ the reservation above was a
	// no-op that did not advance the device clock past fwdDone).
	mlpDone := c.tl.ReserveDevice(fwdDone, st.mlp+st.other)
	bwdDone := c.tl.ReserveLinkCost(mlpDone, st.bwd)
	c.tl.ReserveLinkCost(bwdDone, netmodel.LinkCost{Inter: st.allreduce})
	return nextFwdDone
}

// OverlappedSimTime returns the modelled end-to-end duration of every step
// this trainer has run, with the comm/compute overlap schedule above: the
// makespan of the per-link occupancy timeline, the trailing step's compute
// included. It is a pure read; SimTimes' bucket total is the same steps
// scheduled serially. A reshard charged with ChargeReshard occupies the
// links ahead of the first step. Like the collective buckets, the clock is
// complete only where rank 0 runs: another process of a distributed run
// books its device work alone. Zero on a fresh trainer.
func (t *Trainer) OverlappedSimTime() time.Duration {
	return t.clock.end(t.opts.Ranks)
}
