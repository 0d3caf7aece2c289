package dist

import (
	"fmt"

	"dlrmcomp/internal/netmodel"
)

// Elastic resharding: when the rank set changes (a rank drops out or
// rejoins), table ownership — positional, owner = table % Ranks — changes
// with it, so restoring a checkpoint into a trainer built at the new
// world size redistributes the shards round-robin as a side effect. What
// that restore does *not* model is the wire traffic of the
// redistribution: each table whose owner changed crosses the network once
// from its old owner to its new one. PlanReshard enumerates those moves
// and Trainer.ChargeReshard lands their modelled cost in the "reshard"
// sim-time bucket (split per link under a multi-node topology), so an
// elastic run's profile shows what the rank change cost.

// TableMove is one table changing owners.
type TableMove struct {
	// Table is the table id.
	Table int
	// From and To are the old and new owning ranks, both in the *new*
	// world's numbering for To and the old world's for From.
	From, To int
	// Bytes is the table shard's uncompressed footprint on the wire.
	Bytes int64
}

// ReshardPlan describes the redistribution a world-size change causes.
type ReshardPlan struct {
	// OldRanks and NewRanks are the world sizes on each side.
	OldRanks, NewRanks int
	// Moves lists the tables whose owner changes, in table order.
	Moves []TableMove
	// MovedBytes sums the moved shards' footprints.
	MovedBytes int64
}

// PlanReshard computes the moves of a rank-set change over round-robin
// placement: tableRows[i] rows of width dim per table, owners i%oldRanks
// before and i%newRanks after.
func PlanReshard(tableRows []int, dim, oldRanks, newRanks int) (ReshardPlan, error) {
	p := ReshardPlan{OldRanks: oldRanks, NewRanks: newRanks}
	if oldRanks <= 0 || newRanks <= 0 {
		return p, fmt.Errorf("dist: reshard between worlds of %d and %d ranks", oldRanks, newRanks)
	}
	if dim <= 0 {
		return p, fmt.Errorf("dist: reshard with dim %d", dim)
	}
	for tb, rows := range tableRows {
		from, to := tb%oldRanks, tb%newRanks
		if from == to {
			continue
		}
		bytes := int64(rows) * int64(dim) * 4
		p.Moves = append(p.Moves, TableMove{Table: tb, From: from, To: to, Bytes: bytes})
		p.MovedBytes += bytes
	}
	return p, nil
}

// Cost models the redistribution as one sparse all-to-all over the given
// topology: every moved shard is a payload from its old owner to its new
// one, exchanged concurrently. Rank ids beyond either world are valid
// matrix rows — the matrix spans max(OldRanks, NewRanks) so drops and
// rejoins both fit.
func (p ReshardPlan) Cost(net netmodel.Topology) netmodel.LinkCost {
	if len(p.Moves) == 0 || net == nil {
		return netmodel.LinkCost{}
	}
	n := p.OldRanks
	if p.NewRanks > n {
		n = p.NewRanks
	}
	bytes := make([][]int64, n)
	for i := range bytes {
		bytes[i] = make([]int64, n)
	}
	for _, m := range p.Moves {
		bytes[m.From][m.To] += m.Bytes
	}
	return net.AllToAllCost(bytes)
}

// ChargeReshard charges the plan's modelled transfer cost to the
// trainer's "reshard" sim-time bucket and books it on the links of the
// overlapped clock. Call it on the trainer that takes over after the
// restore, before its first step, so the cost appears in the profile of
// the run that paid it and the first forward exchange queues behind it.
func (t *Trainer) ChargeReshard(p ReshardPlan) {
	c := p.Cost(t.opts.Net)
	t.cl.ChargeLinkCost("reshard", c)
	t.clock.tl.ReserveLinkCost(0, c)
}
