package dist

import (
	"sync"
	"sync/atomic"
	"time"

	"dlrmcomp/internal/nn"
	"dlrmcomp/internal/tensor"
)

// This file holds the per-rank step workspaces behind the allocation-free
// hot path. Every buffer a step needs — fused send frames, per-table frame
// scratch, lookup matrices, gradient scatter matrices, the flattened
// allreduce buffer — is allocated once in NewTrainer (or lazily grown to
// the first batch's size) and reused for the life of the trainer. Buffers
// are strictly per rank, so the rank goroutines never share mutable state
// through them; the per-table scratch inside a rank is indexed by table, so
// the rank's codec workers never share slots either.

// stepWorkspace is one rank's reusable per-step state.
type stepWorkspace struct {
	// Fused all-to-all payloads, one buffer per peer (length Ranks).
	send  [][]byte // forward: owner-side compressed/raw lookup frames
	send2 [][]byte // backward: raw lookup-gradient frames

	// Per-table state (length numTables). Owner-side slots are indexed by
	// the owned table, receiver-side slots by the table a frame arrived
	// for; a table index is touched by exactly one codec worker at a time.
	tblFrame    [][][]byte       // [table][dst] wire frame scratch (header + payload)
	tblChunk    []*tensor.Matrix // [table] owner-side gather scratch
	tblErr      []error          // [table] codec failure, merged after the fan-out
	tblCompDur  []time.Duration  // [table] modelled compress cost
	tblDecDur   []time.Duration  // [table] modelled decompress cost
	tblRawBytes []int64          // [table] uncompressed wire bytes
	tblCmpBytes []int64          // [table] compressed wire bytes

	lookups []*tensor.Matrix // [table] this rank's reconstructed shard
	got     []bool           // [table] lookup received this step
	gotGrad []bool           // [table] gradient received this step (owned tables)
	decJobs []decJob         // receive-side decode work list

	gradOf    []*tensor.Matrix // [table] backward scatter scratch for owned tables
	denseView *tensor.Matrix   // aliased view of the rank's b.Dense rows
	dLogits   *tensor.Matrix   // BCE gradient scratch
	gradBuf   []float32        // flattened dense gradients for the allreduce
	params    []nn.Param       // cached DenseParams of this rank's replica

	// Step-statistics allgather scratch: this rank's encoded contribution
	// and the per-rank slot table GatherAll fills (slots alias
	// transport-owned memory valid until the next gather).
	statsBlob []byte
	gathered  [][]byte
}

// decJob is one received frame awaiting decode.
type decJob struct {
	tb      int
	enc     byte
	payload []byte
}

// stepScratch is trainer-level (rank-indexed) per-step accounting, reused
// across steps. Hosted ranks write their own slots during the fan-out; the
// driver then overwrites every slot from the gathered (globally identical)
// statistics, so the aggregation below works the same whether the other
// ranks ran in this process or in peers.
type stepScratch struct {
	start, count []int
	losses       []float32
	errs         []error
	fatal        []bool // transport failure: no coherent global stats exist
	compDur      []time.Duration
	decompDur    []time.Duration
	lookupBytes  []int64
	fwdRaw       []int64
	fwdComp      []int64
}

func newStepScratch(ranks int) stepScratch {
	return stepScratch{
		start:       make([]int, ranks),
		count:       make([]int, ranks),
		losses:      make([]float32, ranks),
		errs:        make([]error, ranks),
		fatal:       make([]bool, ranks),
		compDur:     make([]time.Duration, ranks),
		decompDur:   make([]time.Duration, ranks),
		lookupBytes: make([]int64, ranks),
		fwdRaw:      make([]int64, ranks),
		fwdComp:     make([]int64, ranks),
	}
}

// reset clears the accounting for a new step.
func (s *stepScratch) reset() {
	for r := range s.losses {
		s.losses[r] = 0
		s.errs[r] = nil
		s.fatal[r] = false
		s.compDur[r] = 0
		s.decompDur[r] = 0
		s.lookupBytes[r] = 0
		s.fwdRaw[r] = 0
		s.fwdComp[r] = 0
	}
}

// newStepWorkspace builds rank r's workspace. Matrices are lazily sized on
// first use (batch sizes are not known here); the allreduce buffer is fixed
// by the model.
func newStepWorkspace(ranks, numTables, numParams int, params []nn.Param) *stepWorkspace {
	ws := &stepWorkspace{
		send:        make([][]byte, ranks),
		send2:       make([][]byte, ranks),
		tblFrame:    make([][][]byte, numTables),
		tblChunk:    make([]*tensor.Matrix, numTables),
		tblErr:      make([]error, numTables),
		tblCompDur:  make([]time.Duration, numTables),
		tblDecDur:   make([]time.Duration, numTables),
		tblRawBytes: make([]int64, numTables),
		tblCmpBytes: make([]int64, numTables),
		lookups:     make([]*tensor.Matrix, numTables),
		got:         make([]bool, numTables),
		gotGrad:     make([]bool, numTables),
		gradOf:      make([]*tensor.Matrix, numTables),
		denseView:   &tensor.Matrix{},
		gradBuf:     make([]float32, numParams),
		params:      params,
		gathered:    make([][]byte, ranks),
	}
	for tb := range ws.tblFrame {
		ws.tblFrame[tb] = make([][]byte, ranks)
	}
	return ws
}

// gradRows returns rows [lo, lo+count) of owned table tb's gradient
// scratch, sizing the scratch to the batch (n×dim) on its first use in a
// step.
func (ws *stepWorkspace) gradRows(tb, n, dim, lo, count int) []float32 {
	if !ws.gotGrad[tb] {
		ws.gradOf[tb] = ws.gradOf[tb].Resize(n, dim)
		ws.gotGrad[tb] = true
	}
	return ws.gradOf[tb].Data[lo*dim : (lo+count)*dim]
}

// parallelDo runs fn(0..n-1), fanning the work across up to t.codecWorkers
// goroutines. With one worker (the default when GOMAXPROCS gives each rank
// no spare cores) it degenerates to the plain loop and performs no
// allocation; with more, multi-table owners use idle cores for the
// per-table codec work. fn calls for distinct k must not share mutable
// state (the step code indexes everything by table).
func (t *Trainer) parallelDo(n int, fn func(k int)) {
	w := t.codecWorkers
	if w > n {
		w = n
	}
	if w <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}
