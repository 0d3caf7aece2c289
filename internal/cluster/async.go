package cluster

import (
	"time"

	"dlrmcomp/internal/netmodel"
)

// This file implements the nonblocking collectives behind the comm/compute
// overlap engine. In the simulation the data movement of a collective is
// eager — IAllToAllV and IAllReduceSum run the same transport protocol as
// their synchronous counterparts before returning, so the payloads are
// already delivered when the handle comes back. What the handle defers is
// simulated time: the collective's cost is captured at issue and charged to
// its accounting bucket only at Await. That split is exactly what an
// overlap scheduler needs — it can place the wire time of an in-flight
// transfer on a link-occupancy timeline while modelled compute proceeds,
// then Await at the simulated completion point.
//
// Because delivery is eager, Await calls are order-independent: two
// collectives may be issued back to back and awaited in either order (each
// all-to-all's trailing barrier protects its reads before the next one
// reuses send buffers). Every rank of a collective must issue it — the
// protocol inside is fleet-wide — and each rank must eventually Await its
// own handle exactly as it would call the synchronous collective, or the
// collective's time silently never lands in a bucket.
//
// A transport failure at issue time is captured in the handle and returned
// from Await, mirroring how a real nonblocking collective surfaces
// connection errors at completion.

// PendingAllToAll is an in-flight nonblocking all-to-all issued by one
// rank. The payloads are already delivered (delivery is eager; only the
// clock is deferred); Await returns them and charges the collective's
// simulated cost on first call.
type PendingAllToAll struct {
	c       *Cluster
	rank    int
	label   string
	recv    [][]byte
	cost    netmodel.LinkCost // nonzero on rank 0 only
	err     error
	awaited bool
}

// IAllToAllV issues a nonblocking all-to-all: identical data movement and
// algorithm selection to AllToAllV, but the simulated cost is captured in
// the returned handle instead of charged immediately. Every rank of the
// collective must call it (and later Await), like any collective.
func (r *Rank) IAllToAllV(send [][]byte, variable bool, label string, algo A2AAlgo) *PendingAllToAll {
	recv, cost, err := r.exchange(send, variable, algo)
	if err == nil && r.ID == 0 {
		// Fault injection scales the cost at the one point it is known
		// (rank 0), before it reaches the handle: Await's charge and any
		// overlap scheduler reading Cost() both see the inflated figure.
		cost = scaleLinkCost(cost, r.c.faultScale())
	}
	return &PendingAllToAll{c: r.c, rank: r.ID, label: label, recv: recv, cost: cost, err: err}
}

// Await completes the collective from this rank's point of view: it returns
// the received buffers and, on the first call from rank 0, charges the
// collective's simulated cost to its bucket (split per link under a
// multi-node topology). A failed collective returns its transport error and
// charges nothing. Await is idempotent; later calls return the same result
// without charging again.
func (p *PendingAllToAll) Await() ([][]byte, error) {
	if !p.awaited {
		p.awaited = true
		if p.err == nil && p.rank == 0 {
			p.c.chargeA2A(p.label, p.cost)
		}
	}
	return p.recv, p.err
}

// Cost reports the collective's simulated cost (metadata included when the
// exchange was variable-size). Only rank 0's handle carries it — the cost
// is computed once per collective from the global payload matrix — so
// schedulers read it from rank 0 and see a zero LinkCost elsewhere.
func (p *PendingAllToAll) Cost() netmodel.LinkCost { return p.cost }

// PendingAllReduce is an in-flight nonblocking allreduce issued by one
// rank. The reduction is already applied to the caller's slice (delivery is
// eager); Await charges the collective's simulated cost on first call.
type PendingAllReduce struct {
	c       *Cluster
	rank    int
	label   string
	cost    time.Duration // nonzero on rank 0 only
	err     error
	awaited bool
}

// IAllReduceSum issues a nonblocking elementwise-sum allreduce: x holds the
// global sum when the call returns (the data movement is eager), and the
// simulated cost is captured in the handle for Await to charge. Every rank
// must call it with the same-length slice, like the synchronous
// AllReduceSum.
func (r *Rank) IAllReduceSum(x []float32, label string) *PendingAllReduce {
	cost, err := r.reduce(x)
	if err == nil && r.ID == 0 {
		cost = scaleDuration(cost, r.c.faultScale())
	}
	return &PendingAllReduce{c: r.c, rank: r.ID, label: label, cost: cost, err: err}
}

// Await charges the allreduce's simulated cost on the first call from
// rank 0 and reports the collective's error, if any. Idempotent.
func (p *PendingAllReduce) Await() error {
	if !p.awaited {
		p.awaited = true
		if p.err == nil && p.rank == 0 {
			p.c.AddSimTime(p.label, p.cost)
		}
	}
	return p.err
}

// Cost reports the allreduce's simulated duration (rank 0's handle only;
// zero elsewhere).
func (p *PendingAllReduce) Cost() time.Duration { return p.cost }
