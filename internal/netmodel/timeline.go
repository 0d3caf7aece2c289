package netmodel

import "time"

// Resource names the overlap engine reserves occupancy on. The device is a
// resource like the links: one fleet-wide compute lane (the busiest rank
// bounds a synchronous collective step, so per-step device charges already
// aggregate the fleet).
const (
	// ResDevice is the per-rank compute lane (MLP, lookup, codec kernels).
	ResDevice = "dev"
	// ResIntra is the NVLink-class intra-node link.
	ResIntra = "intra"
	// ResInter is the NIC-class inter-node link (the single wire of a flat
	// topology also charges here).
	ResInter = "inter"
)

// Timeline tracks per-link occupancy so in-flight work on different links
// genuinely overlaps while contending work on the same link serializes. It
// is the substrate of the comm/compute overlap schedule: the pipelined
// trainer reserves every step component (device compute, intra-link
// payloads, inter-link payloads) on its resource and reads the makespan
// back out, instead of summing components serially.
//
// A Timeline is a scalar clock per resource, not an event queue: Reserve
// books work on a resource no earlier than both the caller's ready time
// (its dependencies) and the resource's busy-until time (its contention),
// in call order. Callers must therefore reserve work roughly in start-time
// order per resource — which the pipelined step schedule does by
// construction. The zero value is not usable; call NewTimeline.
type Timeline struct {
	busy map[string]time.Duration
	end  time.Duration
}

// NewTimeline returns an empty timeline with every resource free at 0.
func NewTimeline() *Timeline {
	return &Timeline{busy: make(map[string]time.Duration)}
}

// Reserve books cost on the named resource, starting no earlier than ready
// (the dependency edge) and no earlier than the resource's busy-until time
// (the contention edge), and returns the completion time. A zero (or
// negative) cost is a no-op that returns the effective start time without
// occupying the resource, so dependency chains can thread through resources
// a particular configuration never charges (e.g. the intra link of a flat
// topology).
func (t *Timeline) Reserve(res string, ready, cost time.Duration) time.Duration {
	start := ready
	if b := t.busy[res]; b > start {
		start = b
	}
	if cost <= 0 {
		return start
	}
	done := start + cost
	t.busy[res] = done
	if done > t.end {
		t.end = done
	}
	return done
}

// ReserveLinkCost books a collective's per-link components concurrently:
// the intra share on ResIntra and the inter share on ResInter, both ready
// at the same dependency time. It returns the later completion — the
// collective is done when both links drain. This models the two link
// classes of a hierarchical machine running in parallel, which the serial
// LinkCost.Total accounting deliberately does not.
func (t *Timeline) ReserveLinkCost(ready time.Duration, c LinkCost) time.Duration {
	intra := t.Reserve(ResIntra, ready, c.Intra)
	inter := t.Reserve(ResInter, ready, c.Inter)
	if intra > inter {
		return intra
	}
	return inter
}

// End returns the makespan: the completion time of the latest reservation.
func (t *Timeline) End() time.Duration { return t.end }
