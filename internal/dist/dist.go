package dist

import (
	"fmt"
	"reflect"
	"runtime"

	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/interaction"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/nn"
	"dlrmcomp/internal/tensor"
)

// The trainer's learning rates, the single-process recipe the experiment
// drivers use too: SGD on the dense MLPs, scaled SGD on the sparse
// embedding rows.
const (
	DefaultDenseLR float32 = 0.05
	DefaultEmbLR   float32 = 0.3
)

// Options configures the distributed trainer.
type Options struct {
	// Ranks is the simulated GPU count.
	Ranks int
	// Transport, when non-nil, runs the trainer's collectives over the
	// given fabric endpoint instead of the in-process channel fabric. The
	// endpoint's World must equal Ranks; the trainer then hosts only the
	// endpoint's rank, and the caller runs one identically-configured
	// trainer per rank (one per process for cluster/tcptransport), feeding
	// every process the same deterministic batch stream. Each process steps
	// only its own rank — model state owned by other ranks goes stale
	// locally — but losses and rank 0's sim-time buckets are bit-identical
	// to the in-process run.
	Transport cluster.Transport
	// Model describes the DLRM instance replicated (MLPs) and sharded
	// (embedding tables) across ranks.
	Model model.Config
	// Net is the interconnect topology; nil (or a zero-value Network, the
	// pre-interface way of requesting the default) means the flat
	// netmodel.Slingshot10(). Pass a netmodel.Hierarchical to model the
	// paper's two-level testbed — the embedding all-to-alls then charge
	// separate "fwd-a2a-intra"/"fwd-a2a-inter" (and bwd) buckets.
	Net netmodel.Topology
	// Device models per-GPU compute; the zero value means A100().
	Device netmodel.Device
	// OtherComputeFactor charges an "other" bucket of this fraction of the
	// MLP time per step, standing in for non-MLP compute (optimizer, data
	// loading, feature interaction) so breakdown shares match Fig. 1.
	OtherComputeFactor float64
	// CodecFor, when non-nil, supplies the communication codec for each
	// table's forward all-to-all traffic (nil return = that table is sent
	// uncompressed). Return a distinct instance per table: instances are
	// shared across rank goroutines, which is safe because Compress and
	// Decompress are pure, but per-table error bounds mutate codec state.
	CodecFor func(table int) codec.Codec
	// Controller, when non-nil, drives per-table per-iteration error bounds
	// (the dual-level adaptive strategy): before each step, every
	// error-bounded codec gets SetErrorBound(Controller.EBAt(table, iter)).
	Controller *adapt.Controller
	// Faults, when non-nil, arms the cluster with a fault-injection plan:
	// per-collective latency jitter and per-rank slow multipliers inflate
	// the simulated cost of every collective (the straggler's factor
	// dominates, since a collective completes when its slowest participant
	// does). Faults scale the modelled clock only — losses are
	// bit-identical to the healthy run. Drop/rejoin events in the plan are
	// ignored here; the scenario layer's elastic runner consumes them.
	// Under a wire transport every process must pass the same plan so
	// rank 0 (where cost is computed) always has it.
	Faults *cluster.FaultPlan
}

// replica is one rank's data-parallel model state: a DLRM whose MLPs are
// private bit-identical copies (so replicas stay in lockstep under
// all-reduced gradients) and whose embedding group is the shared,
// model-parallel one — replicas only ever touch it through the lookups the
// all-to-all delivers, via ForwardFromLookups/Backward.
type replica struct {
	m   *model.DLRM
	opt *nn.SGD
}

// Trainer runs hybrid-parallel DLRM training on a simulated cluster.
type Trainer struct {
	opts Options
	cl   *cluster.Cluster

	// tmpl holds the shared embedding tables (each stored once, owned by
	// rank table%Ranks) and doubles as rank 0's MLP replica, so Evaluate
	// can run a plain single-process forward over the trained weights.
	tmpl     *model.DLRM
	replicas []*replica

	// per-table codecs and their calibrated kernel rates, both nil unless
	// at least one table compresses (which makes the forward all-to-all
	// variable-size).
	codecs []codec.Codec
	rates  []netmodel.CodecRates

	numParams int // flattened dense-gradient length for the AllReduce
	iter      int

	// Steady-state workspaces: per-rank step buffers, rank-indexed step
	// accounting, the owned-table list per rank, the intra-rank width, and
	// the cached per-sample MAC count for stepFlops — all built once in
	// NewTrainer so Step allocates only a bounded handful of objects
	// (goroutine fan-out, collective handles).
	ws       []*stepWorkspace
	scr      stepScratch
	owned    [][]int
	width    int
	stepMacs float64

	// forward all-to-all volume accounting across all steps.
	fwdRawBytes  int64
	fwdCompBytes int64

	// fwdHook, when set (tests only), observes each rank's reconstructed
	// lookup shard right after the forward all-to-all: recon is the
	// [shard, dim] matrix for table and indices the shard's global rows.
	fwdHook func(rank, table int, recon *tensor.Matrix, indices []int32)

	// clock is the overlapped clock every successful Step books onto
	// (overlap.go).
	clock overlapClock

	// Close-once state: the first Close's result, replayed by later calls.
	closed   bool
	closeErr error
}

// NewTrainer validates opts, builds the template model, the per-rank MLP
// replicas, and the per-table codecs, and returns the trainer.
func NewTrainer(opts Options) (*Trainer, error) {
	if opts.Ranks <= 0 {
		return nil, fmt.Errorf("dist: Ranks must be positive, got %d", opts.Ranks)
	}
	if err := opts.Model.Validate(); err != nil {
		return nil, err
	}
	if opts.Net == nil {
		opts.Net = netmodel.Slingshot10()
	} else if n, ok := opts.Net.(netmodel.Network); ok && n == (netmodel.Network{}) {
		// The pre-Topology API documented the zero value as "use the
		// default"; honor that so such callers don't run on a
		// zero-bandwidth network.
		opts.Net = netmodel.Slingshot10()
	}
	if (opts.Device == netmodel.Device{}) {
		opts.Device = netmodel.A100()
	}
	numTables := len(opts.Model.TableSizes)
	if opts.Controller != nil {
		if opts.CodecFor == nil {
			return nil, fmt.Errorf("dist: Controller requires CodecFor (nothing to drive error bounds on)")
		}
		if opts.Controller.NumTables() != numTables {
			return nil, fmt.Errorf("dist: controller covers %d tables, model has %d",
				opts.Controller.NumTables(), numTables)
		}
	}

	tmpl, err := model.New(opts.Model)
	if err != nil {
		return nil, err
	}
	var cl *cluster.Cluster
	if opts.Transport != nil {
		if w := opts.Transport.World(); w != opts.Ranks {
			return nil, fmt.Errorf("dist: transport world size %d does not match Ranks %d", w, opts.Ranks)
		}
		if cl, err = cluster.NewOverTransport(opts.Transport, opts.Net); err != nil {
			return nil, err
		}
	} else {
		cl = cluster.New(opts.Ranks, opts.Net)
	}
	t := &Trainer{opts: opts, cl: cl, tmpl: tmpl}
	if opts.Faults != nil {
		if err := cl.SetFaultPlan(opts.Faults); err != nil {
			cl.Close()
			return nil, err
		}
	}

	if opts.CodecFor != nil {
		paper := netmodel.PaperCodecRates()
		// Conservative default for codecs the calibration table doesn't
		// know about.
		def := netmodel.CodecRates{Compress: 50e9, Decompress: 100e9}
		t.codecs = make([]codec.Codec, numTables)
		t.rates = make([]netmodel.CodecRates, numTables)
		anyCodec := false
		for tb := 0; tb < numTables; tb++ {
			c := opts.CodecFor(tb)
			t.codecs[tb] = c
			if c == nil {
				continue
			}
			anyCodec = true
			if r, ok := paper[c.Name()]; ok {
				t.rates[tb] = r
			} else {
				t.rates[tb] = def
			}
		}
		if opts.Controller != nil {
			// The controller tunes bounds per table; a shared ErrorBounded
			// instance would silently leave every table at the last
			// table's bound.
			seen := make(map[uintptr]int)
			for tb, c := range t.codecs {
				if _, ok := c.(codec.ErrorBounded); !ok {
					continue
				}
				v := reflect.ValueOf(c)
				if v.Kind() != reflect.Pointer {
					continue
				}
				if prev, dup := seen[v.Pointer()]; dup {
					return nil, fmt.Errorf("dist: CodecFor returned the same error-bounded codec for tables %d and %d; the Controller needs a distinct instance per table", prev, tb)
				}
				seen[v.Pointer()] = tb
			}
		}
		if !anyCodec {
			t.codecs, t.rates = nil, nil
		}
	}

	// The intra-rank width: how many goroutines one rank's compute stages
	// (matmul rows, interaction samples, local-shard gathers, the optimizer)
	// and its per-table codec jobs fan out over. It is derived from the
	// machine, never set: one per rank unless GOMAXPROCS leaves spare cores,
	// capped at 8. Results are bit-identical at every width — the width only
	// changes which goroutine computes a row or a block. Resolved before the
	// replicas are built so every model layer gets it at construction.
	t.width = min(max(runtime.GOMAXPROCS(0)/opts.Ranks, 1), 8)

	for r := 0; r < opts.Ranks; r++ {
		rp := &replica{opt: &nn.SGD{LR: DefaultDenseLR, Workers: t.width}}
		if r == 0 {
			rp.m = tmpl
		} else {
			rp.m = &model.DLRM{
				Cfg:      opts.Model,
				Bottom:   tmpl.Bottom.Clone(),
				Emb:      tmpl.Emb, // shared: tables are model-parallel
				Interact: interaction.NewDotInteraction(numTables, opts.Model.EmbeddingDim),
				Top:      tmpl.Top.Clone(),
			}
		}
		rp.m.SetComputeWorkers(t.width)
		t.replicas = append(t.replicas, rp)
	}
	for _, p := range t.replicas[0].m.DenseParams() {
		t.numParams += len(p.Value)
	}

	// Build the steady-state step machinery: owned-table lists, the
	// rank-indexed accounting scratch, and one workspace per rank (each
	// caching its replica's parameter list — the Param headers are rebuilt
	// identically by every DenseParams call, but the underlying value/grad
	// slices are stable for the trainer's lifetime).
	t.owned = make([][]int, opts.Ranks)
	for tb := 0; tb < numTables; tb++ {
		r := t.owner(tb)
		t.owned[r] = append(t.owned[r], tb)
	}
	t.scr = newStepScratch(opts.Ranks)
	t.ws = make([]*stepWorkspace, opts.Ranks)
	t.stepMacs = stepMacsFor(opts.Model)
	for r := 0; r < opts.Ranks; r++ {
		t.ws[r] = newStepWorkspace(t, r)
	}
	return t, nil
}

// owner returns the rank holding table tb's shard.
func (t *Trainer) owner(tb int) int { return tb % t.opts.Ranks }

// Cluster exposes the simulated process group (for SimTimes breakdowns).
func (t *Trainer) Cluster() *cluster.Cluster { return t.cl }

// Close releases the trainer's communication endpoints. Over a wire
// transport it runs the graceful shutdown handshake with the peers; on the
// in-process fabric it tears the group down. The trainer cannot step after
// Close. Close is idempotent — later calls return the first call's result
// without touching the endpoints again — and safe after a transport
// failure (a poisoned endpoint's teardown is a no-op beyond surfacing its
// error state).
func (t *Trainer) Close() error {
	if t.closed {
		return t.closeErr
	}
	t.closed = true
	t.closeErr = t.cl.Close()
	return t.closeErr
}

// CompressionRatio returns uncompressed/compressed bytes of all forward
// all-to-all traffic that went through a codec so far (1 when nothing has).
func (t *Trainer) CompressionRatio() float64 {
	if t.fwdCompBytes == 0 {
		return 1
	}
	return float64(t.fwdRawBytes) / float64(t.fwdCompBytes)
}

// Evaluate computes accuracy and log-loss over a batch with a plain
// (uncompressed, single-process) forward pass over the trained weights.
// The data-parallel replicas are kept bit-identical by construction, so the
// template's rank-0 MLPs together with the shared embedding tables are the
// global model.
//
// Evaluate requires every rank in-process: over a distributed transport
// the local process only updates the tables its own rank owns, so the
// template is stale elsewhere (scenario validation rejects tcp+eval for
// this reason).
func (t *Trainer) Evaluate(b *criteo.Batch) (acc, logloss float64) {
	logits := t.tmpl.Forward(b.Dense, b.Indices)
	return nn.Accuracy(logits, b.Labels), nn.LogLoss(logits, b.Labels)
}
