package dist

import (
	"sync/atomic"

	"dlrmcomp/internal/nn"
	"dlrmcomp/internal/tensor"
)

// This file holds the per-rank step workspaces behind the allocation-free
// hot path. Every buffer a step needs — fused send frames, the exchange's
// per-block frame scratch, lookup matrices, gradient scatter matrices, the
// flattened allreduce buffer — is allocated once in NewTrainer (or lazily
// grown to the first batch's size) and reused for the life of the trainer.
// Buffers are strictly per rank, so the rank goroutines never share mutable
// state through them; inside a rank each parallelDo job touches only its
// own block.

// stepWorkspace is one rank's reusable per-step state.
type stepWorkspace struct {
	// Fused all-to-all payloads, one buffer per peer (length Ranks). The
	// directions keep separate sets: on the zero-copy in-process fabric a
	// peer's received forward frames alias this rank's send buffers.
	send  [][]byte // forward: compressed or raw lookup frames
	send2 [][]byte // backward: lookup-gradient frames, raw (no codec in that direction)
	x     *exchange

	// Per-table state (length numTables).
	gather  []*tensor.Matrix // [table] owner-side whole-batch lookup gather
	lookups []*tensor.Matrix // [table] this rank's shard; a view of gather for owned tables
	gradOf  []*tensor.Matrix // [table] backward scatter scratch for owned tables

	denseView *tensor.Matrix // aliased view of the rank's b.Dense rows
	dLogits   *tensor.Matrix // BCE gradient scratch
	gradBuf   []float32      // flattened dense gradients for the allreduce
	params    []nn.Param     // cached DenseParams of this rank's replica

	// Step-statistics allgather scratch: this rank's encoded contribution
	// and the per-rank slot table GatherAll fills. In process each slot
	// aliases its sender's statsBlob, which the sender rewrites only in the
	// next step; over a wire transport the slots are copies.
	statsBlob []byte
	gathered  [][]byte
}

// stepScratch is trainer-level (rank-indexed) per-step accounting, reused
// across steps. Hosted ranks write their own slots during the fan-out; the
// driver then overwrites every slot from the gathered (globally identical)
// statistics, so the aggregation below works the same whether the other
// ranks ran in this process or in peers.
type stepScratch struct {
	start, count []int
	stats        []rankStats // errStr unused: errs holds the error itself
	errs         []error
	fatal        []bool // transport failure: no coherent global stats exist
}

func newStepScratch(ranks int) stepScratch {
	return stepScratch{
		start: make([]int, ranks),
		count: make([]int, ranks),
		stats: make([]rankStats, ranks),
		errs:  make([]error, ranks),
		fatal: make([]bool, ranks),
	}
}

// reset clears the accounting for a new step.
func (s *stepScratch) reset() {
	clear(s.stats)
	clear(s.errs)
	clear(s.fatal)
}

// newStepWorkspace builds rank r's workspace. Matrices are lazily sized on
// first use (batch sizes are not known here), except the lookup views of
// the rank's own tables; the allreduce buffer is fixed by the model.
func newStepWorkspace(t *Trainer, r int) *stepWorkspace {
	ranks, numTables := t.opts.Ranks, len(t.opts.Model.TableSizes)
	ws := &stepWorkspace{
		send:      make([][]byte, ranks),
		send2:     make([][]byte, ranks),
		x:         newExchange(t, r, numTables),
		gather:    make([]*tensor.Matrix, numTables),
		lookups:   make([]*tensor.Matrix, numTables),
		gradOf:    make([]*tensor.Matrix, numTables),
		denseView: &tensor.Matrix{},
		gradBuf:   make([]float32, t.numParams),
		params:    t.replicas[r].m.DenseParams(),
		gathered:  make([][]byte, ranks),
	}
	for _, tb := range t.owned[r] {
		ws.lookups[tb] = &tensor.Matrix{}
	}
	return ws
}

// parallelDo runs fn(0..n-1) at up to the trainer's intra-rank width. At
// width 1 (the default when GOMAXPROCS gives each rank no spare core) it is
// the plain loop and performs no allocation. Wider, it hands w single-index
// spans to the shared tensor pool and every span claims indices k from a
// shared counter until none are left, so one slow block does not idle the
// rest — the same dynamic claiming interaction does with ParallelSpans(w,
// w, …). fn calls for distinct k must not share mutable state (the exchange
// indexes everything by block), and fn must be a pool leaf: the encode and
// decode jobs never call ParallelSpans.
func (t *Trainer) parallelDo(n int, fn func(k int)) {
	w := min(t.width, n)
	if w <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var next atomic.Int64
	tensor.ParallelSpans(w, w, func(int, int) {
		for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
			fn(k)
		}
	})
}
