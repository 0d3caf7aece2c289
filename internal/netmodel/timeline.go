package netmodel

import "time"

// Timeline tracks per-link occupancy so in-flight work on different links
// genuinely overlaps while contending work on the same link serializes. It
// is the substrate of the trainer's overlapped clock: every step component
// (device compute, intra-link payloads, inter-link payloads) is reserved on
// its lane and the makespan is read back out, instead of summing the
// components serially.
//
// A Timeline is a scalar busy-until clock per lane, not an event queue: a
// reservation books work on a lane no earlier than both the caller's ready
// time (its dependencies) and the lane's busy-until time (its contention),
// in call order. Callers must therefore reserve work roughly in start-time
// order per lane — which the trainer's step schedule does by construction.
// The zero value is an empty timeline with every lane free at 0; a copy is
// an independent timeline.
type Timeline struct {
	// Device is the compute lane (MLP, lookup, codec kernels): one
	// fleet-wide lane, because the busiest rank bounds a synchronous
	// collective step, so per-step device charges already aggregate the
	// fleet.
	Device time.Duration
	// Intra is the NVLink-class intra-node link.
	Intra time.Duration
	// Inter is the NIC-class inter-node link (the single wire of a flat
	// topology also charges here).
	Inter time.Duration
}

// reserve books cost on the lane whose busy-until time is *busy, starting
// no earlier than ready (the dependency edge) and no earlier than the lane
// is free (the contention edge), and returns the completion time. A zero
// (or negative) cost is a no-op that returns the effective start time
// without occupying the lane, so dependency chains can thread through
// lanes a particular configuration never charges (e.g. the intra link of
// a flat topology).
func reserve(busy *time.Duration, ready, cost time.Duration) time.Duration {
	start := max(ready, *busy)
	if cost <= 0 {
		return start
	}
	*busy = start + cost
	return *busy
}

// ReserveDevice books cost on the device lane; see reserve for the edges.
func (t *Timeline) ReserveDevice(ready, cost time.Duration) time.Duration {
	return reserve(&t.Device, ready, cost)
}

// ReserveLinkCost books a collective's per-link components concurrently:
// the intra share on the intra link and the inter share on the inter link,
// both ready at the same dependency time. It returns the later completion
// — the collective is done when both links drain. This models the two link
// classes of a hierarchical machine running in parallel, which the serial
// LinkCost.Total accounting deliberately does not.
func (t *Timeline) ReserveLinkCost(ready time.Duration, c LinkCost) time.Duration {
	return max(reserve(&t.Intra, ready, c.Intra), reserve(&t.Inter, ready, c.Inter))
}

// End returns the makespan: the completion time of the latest reservation.
func (t Timeline) End() time.Duration { return max(t.Device, t.Intra, t.Inter) }
