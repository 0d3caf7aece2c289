package main

import (
	"fmt"
	"math"
	"time"

	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/embedding"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/nn"
	"dlrmcomp/internal/scenario"
	"dlrmcomp/internal/tensor"
)

const (
	replays         = 20 // timed steps replayed layer by layer
	wireFrameHeader = 9  // bytes dist puts before each table's payload (table, encoding, length)
)

// replayer rebuilds rank 0's share of a training step from the layers'
// public constructors and times each layer's public call, single-threaded,
// on a step's real batch. The trainer's own tables are not reachable from
// outside, so the replay model carries the weights of a checkpoint taken
// after the timed steps; the error bounds are those the controller set at
// the replayed step.
type replayer struct {
	ranks, dim    int
	m             *model.DLRM
	codecs        []*hybrid.Codec // per table; nil without a codec
	ebAt          func(table, iter int) float32
	cl            *cluster.Cluster // nil at one rank
	sgd           *nn.SGD
	start, count  []int
	numParams     int
	ms            map[string]float64 // summed span time by metric
	wire          [][][]byte         // [table][dst] frame buffers, reused across steps
	frameBytes    float64
	frames, vlz   int
	codecCalls    int
	codecMallocs  uint64
	clusterCalls  int
	clusterBytes  uint64
	clusterCPUms  float64
	worstErrOverE float64
	n             int // steps replayed
}

func newReplayer(rs scenario.Spec, net netmodel.Topology, weights *dist.CheckpointData, ctrl *adapt.Controller) (*replayer, error) {
	m, err := model.New(rs.ModelConfig())
	if err != nil {
		return nil, err
	}
	m.SetComputeWorkers(1)
	for t, tab := range m.Emb.Tables {
		copy(tab.Weights.Data, weights.Tables[t])
	}
	params := m.DenseParams()
	for i, p := range params {
		copy(p.Value, weights.Dense[i])
	}
	rp := &replayer{
		ranks: rs.Ranks, dim: rs.Dim, m: m,
		sgd:   &nn.SGD{LR: dist.DefaultDenseLR, Workers: 1},
		start: make([]int, rs.Ranks), count: make([]int, rs.Ranks),
		ms: map[string]float64{},
	}
	for _, p := range params {
		rp.numParams += len(p.Value)
	}
	if rs.Codec == "hybrid" {
		for range m.Emb.Tables {
			rp.codecs = append(rp.codecs, hybrid.New(float32(rs.ErrorBound), hybrid.Auto))
		}
		rp.ebAt = func(int, int) float32 { return float32(rs.ErrorBound) }
		if ctrl != nil {
			rp.ebAt = ctrl.EBAt
		}
	}
	if rs.Ranks > 1 {
		rp.cl = cluster.New(rs.Ranks, net)
	}
	return rp, nil
}

// reset discards what the replays so far measured.
func (rp *replayer) reset() {
	*rp = replayer{
		ranks: rp.ranks, dim: rp.dim, m: rp.m, codecs: rp.codecs, ebAt: rp.ebAt, cl: rp.cl, sgd: rp.sgd,
		start: rp.start, count: rp.count, numParams: rp.numParams, wire: rp.wire, ms: map[string]float64{},
	}
}

func (rp *replayer) close() {
	if rp.cl != nil {
		rp.cl.Close()
	}
}

func (rp *replayer) owner(table int) int { return table % rp.ranks }

// collective times one collective across all ranks of the replay cluster.
func (rp *replayer) collective(tr *tracer, metric, name string, traceID, parent int, fn func(r *cluster.Rank) error) error {
	var err error
	c0 := readCounters()
	rp.ms[metric] += tr.timed(name, traceID, parent, func() {
		rp.cl.Run(func(r *cluster.Rank) {
			if e := fn(r); e != nil && r.ID == 0 {
				err = e
			}
		})
	})
	used := readCounters().since(c0)
	rp.clusterCalls++
	rp.clusterBytes += used.bytes
	rp.clusterCPUms += used.cpuMs
	return err
}

// step replays one training step of batch b at iteration iter. Spans hang
// under a "replay" root that shares the step's trace id.
func (rp *replayer) step(tr *tracer, b *criteo.Batch, iter int) error {
	start := time.Now()
	root := tr.begin("replay", iter, 0, start)
	defer func() { tr.end(root, time.Now()) }()
	span := func(metric, name string, fn func()) { rp.ms[metric] += tr.timed(name, iter, root, fn) }

	n, ranks, dim, tables := b.N(), rp.ranks, rp.dim, rp.m.Emb.Tables
	base, rem := n/ranks, n%ranks
	for r, s := 0, 0; r < ranks; r++ {
		rp.start[r], rp.count[r] = s, base
		if r < rem {
			rp.count[r]++
		}
		s += rp.count[r]
	}
	shard := func(tb, dst int) []int32 { return b.Indices[tb][rp.start[dst] : rp.start[dst]+rp.count[dst]] }
	cnt := rp.count[0]

	// Forward lookups: every owner gathers one chunk per destination. Only
	// rank 0's are timed; the others are needed for the frames it receives
	// and for the payload sizes of the collectives.
	chunks := make([][]*tensor.Matrix, len(tables)) // [table][dst]
	for tb := range tables {
		chunks[tb] = make([]*tensor.Matrix, ranks)
		for dst := range chunks[tb] {
			chunks[tb][dst] = tensor.NewMatrix(rp.count[dst], dim)
		}
	}
	gather := func(mine bool) {
		for tb, tab := range tables {
			if (rp.owner(tb) == 0) != mine {
				continue
			}
			for dst := 0; dst < ranks; dst++ {
				tab.LookupInto(chunks[tb][dst], shard(tb, dst))
			}
		}
	}
	span("embedding.lookup_ms_per_step", "embedding.Table.LookupInto", func() { gather(true) })
	gather(false)

	// Forward codec: owners compress every chunk that crosses the wire.
	lookups := make([]*tensor.Matrix, len(tables)) // rank 0's shard, as the model sees it
	fwd := make([][]int, ranks)                    // [src][dst] payload bytes
	for r := range fwd {
		fwd[r] = make([]int, ranks)
	}
	if rp.codecs == nil {
		for tb := range tables {
			lookups[tb] = chunks[tb][0]
			for dst := 0; dst < ranks; dst++ {
				if o := rp.owner(tb); dst != o {
					fwd[o][dst] += wireFrameHeader + 4*len(chunks[tb][dst].Data)
				}
			}
		}
	} else {
		if rp.wire == nil {
			rp.wire = make([][][]byte, len(tables))
			for tb := range rp.wire {
				rp.wire[tb] = make([][]byte, ranks)
			}
		}
		frames := rp.wire
		var err error
		encode := func(mine bool) {
			for tb, c := range rp.codecs {
				o := rp.owner(tb)
				if (o == 0) != mine {
					continue
				}
				c.SetErrorBound(rp.ebAt(tb, iter))
				for dst := 0; dst < ranks && err == nil; dst++ {
					if dst == o {
						continue
					}
					frames[tb][dst], err = c.CompressAppend(frames[tb][dst][:0], chunks[tb][dst].Data, dim)
				}
			}
		}
		c0 := readCounters()
		span("hybrid.encode_ms_per_step", "hybrid.CompressAppend", func() { encode(true) })
		rp.codecMallocs += readCounters().since(c0).mallocs
		encode(false)
		if err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		for tb := range tables {
			o := rp.owner(tb)
			for dst, f := range frames[tb] {
				if dst == o {
					continue
				}
				fwd[o][dst] += wireFrameHeader + len(f)
				rp.frameBytes += float64(len(f))
				rp.frames++
				if o == 0 { // only rank 0's calls ran between the malloc snapshots
					rp.codecCalls++
				}
				if sub, err := hybrid.SubEncoderOf(f); err != nil {
					return err
				} else if sub == "vlz" {
					rp.vlz++
				}
			}
		}
		// Rank 0 decodes the frames the other owners sent for its shard.
		for tb := range tables {
			lookups[tb] = chunks[tb][0]
			if rp.owner(tb) != 0 {
				lookups[tb] = tensor.NewMatrix(cnt, dim)
			}
		}
		c0 = readCounters()
		span("hybrid.decode_ms_per_step", "hybrid.DecompressInto", func() {
			for tb, c := range rp.codecs {
				if rp.owner(tb) == 0 || err != nil {
					continue
				}
				var got int
				if got, err = c.DecompressInto(lookups[tb].Data, frames[tb][0]); err == nil && got != dim {
					err = fmt.Errorf("table %d decoded to dim %d, want %d", tb, got, dim)
				}
			}
		})
		rp.codecMallocs += readCounters().since(c0).mallocs
		if err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		for tb, c := range rp.codecs {
			if rp.owner(tb) == 0 {
				continue
			}
			rp.codecCalls++
			for k, v := range chunks[tb][0].Data {
				over := math.Abs(float64(lookups[tb].Data[k]-v)) / float64(c.ErrorBound())
				rp.worstErrOverE = max(rp.worstErrOverE, over)
			}
		}
	}

	// Collectives, on payloads of the step's sizes.
	payload := func(sizes [][]int) [][][]byte {
		out := make([][][]byte, ranks)
		for r := range out {
			out[r] = make([][]byte, ranks)
			for dst, sz := range sizes[r] {
				out[r][dst] = make([]byte, sz)
			}
		}
		return out
	}
	a2a := func(metric, label string, variable bool, send [][][]byte) error {
		return rp.collective(tr, metric, "cluster.Rank.IAllToAllV/"+label, iter, root, func(r *cluster.Rank) error {
			_, err := r.IAllToAllV(send[r.ID], variable, label, cluster.A2AAuto).Await()
			return err
		})
	}
	if rp.cl != nil {
		if err := a2a("cluster.a2a_small_ms_per_call", "fwd-a2a", rp.codecs != nil, payload(fwd)); err != nil {
			return err
		}
	}

	// Rank 0's dense compute on its shard.
	dense := &tensor.Matrix{Rows: cnt, Cols: b.Dense.Cols, Data: b.Dense.Data[:cnt*b.Dense.Cols]}
	var bot, z, logits, dZ, dBot *tensor.Matrix
	var dLookups []*tensor.Matrix
	rp.m.ZeroGrad()
	span("nn.mlp_fwd_ms_per_step", "nn.MLP.Forward/bottom", func() { bot = rp.m.Bottom.Forward(dense) })
	span("interaction.fwd_ms_per_step", "interaction.DotInteraction.Forward", func() { z = rp.m.Interact.Forward(bot, lookups) })
	span("nn.mlp_fwd_ms_per_step", "nn.MLP.Forward/top", func() { logits = rp.m.Top.Forward(z) })
	_, dLogits := nn.BCEWithLogits(logits, b.Labels[:cnt])
	span("nn.mlp_bwd_ms_per_step", "nn.MLP.Backward/top", func() { dZ = rp.m.Top.Backward(dLogits) })
	span("interaction.bwd_ms_per_step", "interaction.DotInteraction.Backward", func() { dBot, dLookups = rp.m.Interact.Backward(dZ) })
	span("nn.mlp_bwd_ms_per_step", "nn.MLP.Backward/bottom", func() { rp.m.Bottom.Backward(dBot) })

	// Backward all-to-all: every rank returns raw gradient rows to each owner.
	if rp.cl != nil {
		bwd := make([][]int, ranks)
		for r := range bwd {
			bwd[r] = make([]int, ranks)
			for tb := range tables {
				if o := rp.owner(tb); o != r {
					bwd[r][o] += wireFrameHeader + 4*rp.count[r]*dim
				}
			}
		}
		if err := a2a("cluster.a2a_raw_ms_per_call", "bwd-a2a", false, payload(bwd)); err != nil {
			return err
		}
	}

	// Sparse update of rank 0's tables with full-batch gradient rows (its
	// own shard's gradients, tiled: the values do not change the cost).
	grad := tensor.NewMatrix(n, dim)
	for off := 0; off < len(grad.Data); off += len(dLookups[0].Data) {
		copy(grad.Data[off:], dLookups[0].Data)
	}
	span("embedding.sgd_ms_per_step", "embedding.Table.ApplySGD", func() {
		for tb, tab := range tables {
			if rp.owner(tb) == 0 {
				tab.ApplySGD(embedding.SparseGrad{Indices: b.Indices[tb], Grad: grad}, dist.DefaultEmbLR)
			}
		}
	})

	if rp.cl != nil {
		bufs := make([][]float32, ranks)
		for r := range bufs {
			bufs[r] = make([]float32, rp.numParams)
		}
		err := rp.collective(tr, "cluster.allreduce_ms_per_call", "cluster.Rank.IAllReduceSum", iter, root, func(r *cluster.Rank) error {
			return r.IAllReduceSum(bufs[r.ID], "allreduce").Await()
		})
		if err != nil {
			return err
		}
	}
	span("nn.sgd_ms_per_step", "nn.SGD.Step", func() { rp.sgd.Step(rp.m.DenseParams()) })
	rp.n++
	return nil
}

// probeLayers runs the traced pass's per-layer probes of a train workload
// after its timed steps.
func (w trainWorkload) probeLayers(p *pass, r *passResult, in *trainInst, iter0 int, stepCPUms float64) error {
	m, rs, timed := r.layer, in.rs, len(in.timedB)
	ckptID := iter0 + timed

	// Trained weights for the replay, and the checkpoint timings. A TCP
	// rank holds only its own tables, so there both come from an in-process
	// twin of the same spec, which also gives the step-time ratio.
	src := in.trainer()
	if w.tcp {
		twin, err := w.spec(rs.Seed).Build()
		if err != nil {
			return err
		}
		defer twin.Trainer.Close()
		batches := append(append([]*criteo.Batch(nil), in.warmB...), in.timedB...)
		batches = batches[:min(inprocSteps, len(batches))]
		log, _ := runOps(len(batches), 0, 1, nil, "", 0, func(_, i, _ int) error {
			_, err := twin.Trainer.Step(batches[i])
			return err
		})
		m.set("tcptransport.step_ratio_vs_inproc", r.p50/median(log.ms()))
		src = twin.Trainer
	}
	saveMs, restoreMs, size, weights, err := checkpointProbe(src, p.tr, ckptID)
	if err != nil {
		return err
	}
	m.set("dist.ckpt_save_ms", saveMs)
	m.set("dist.ckpt_restore_ms", restoreMs)
	m.set("dist.ckpt_bytes", float64(size))

	// adapt: the class mix the build chose, the offline analysis replayed
	// on a sample drawn the way Spec.Build draws it, and how often the
	// schedule moved a table's bound during the timed steps.
	var ctrl *adapt.Controller
	if off := in.built[0].Offline; off != nil {
		l, med, s := off.ClassCounts()
		m.set("adapt.tables_l", float64(l))
		m.set("adapt.tables_m", float64(med))
		m.set("adapt.tables_s", float64(s))
		probe, err := model.New(rs.ModelConfig())
		if err != nil {
			return err
		}
		batch := criteo.NewGenerator(rs.Data()).NextBatch(rs.OfflineBatch)
		samples := make([][]float32, len(probe.Emb.Tables))
		for t, tab := range probe.Emb.Tables {
			samples[t] = tab.Lookup(batch.Indices[t]).Data
		}
		m.set("adapt.offline_ms", p.tr.timed("adapt.OfflineAnalysis", ckptID, 0, func() {
			_, err = adapt.OfflineAnalysis(samples, rs.Dim, adapt.OfflineOptions{SampleEB: float32(rs.OfflineEB)})
		}))
		if err != nil {
			return err
		}
		sched, err := adapt.ParseSchedule(rs.Schedule)
		if err != nil {
			return err
		}
		if ctrl, err = adapt.NewController(off.Classes, adapt.PaperEBConfig(), sched, rs.DecayPhase, rs.DecayFactor); err != nil {
			return err
		}
		updates := 0
		for i := iter0; i < iter0+timed; i++ {
			for tb := 0; tb < ctrl.NumTables(); tb++ {
				if i > 0 && ctrl.EBAt(tb, i) != ctrl.EBAt(tb, i-1) {
					updates++
				}
			}
		}
		m.set("adapt.eb_updates_per_step", float64(updates)/float64(timed))
	}

	rp, err := newReplayer(rs, in.built[0].Net, weights, ctrl)
	if err != nil {
		return err
	}
	defer rp.close()
	// One untraced replay first sizes the reused buffers; it is discarded.
	if err := rp.step(nil, in.timedB[0], iter0); err != nil {
		return err
	}
	rp.reset()
	for k := 0; k < min(replays, timed); k++ {
		i := k * timed / min(replays, timed)
		if err := rp.step(p.tr, in.timedB[i], iter0+i); err != nil {
			return err
		}
	}
	per := func(x float64) float64 { return x / float64(rp.n) }
	// The fleet does in one step what rank 0 was replayed doing, scaled by
	// how much of each layer's work rank 0 has: its tables out of all for
	// the owner-side layers, the frames it decodes out of all frames sent,
	// one rank's share for the dense compute. The collectives were replayed
	// with every rank, so their CPU time is already the fleet's.
	tables, ranks := float64(len(rs.Data().Cardinalities)), float64(rs.Ranks)
	owned0 := math.Ceil(tables / ranks)
	var attributed float64
	for name, ms := range rp.ms {
		m.set(name, per(ms))
		switch name {
		case "embedding.lookup_ms_per_step", "embedding.sgd_ms_per_step", "hybrid.encode_ms_per_step":
			attributed += per(ms) * tables / owned0
		case "hybrid.decode_ms_per_step":
			attributed += per(ms) * tables * (ranks - 1) / (tables - owned0)
		case "cluster.a2a_small_ms_per_call", "cluster.a2a_raw_ms_per_call", "cluster.allreduce_ms_per_call":
		default:
			attributed += per(ms) * ranks
		}
	}
	attributed += per(rp.clusterCPUms)
	m.set("dist.unattributed_cpu_share", 1-attributed/stepCPUms)
	if rp.codecs != nil {
		m.set("hybrid.frame_bytes_per_step", per(rp.frameBytes))
		m.set("hybrid.vlz_frame_share", float64(rp.vlz)/float64(rp.frames))
		m.set("hybrid.allocs_per_call", float64(rp.codecMallocs)/float64(rp.codecCalls))
		m.set("hybrid.max_err_over_eb", rp.worstErrOverE)
		if rp.worstErrOverE > 1+1e-4 {
			r.failf("replayed reconstruction error is %.6f of the error bound", rp.worstErrOverE)
		}
	}
	if rp.cl != nil {
		m.set("cluster.alloc_bytes_per_call", float64(rp.clusterBytes)/float64(rp.clusterCalls))
	}
	// Computed from shapes (and the measured compression ratio), not
	// observed on the wire: what the two all-to-alls put on it per step.
	// Round-robin placement gives rank 0 the most tables, and the slowest
	// owner sets the step.
	m.set("dist.owner_imbalance", owned0/(tables/ranks))
	var fwd, bwd float64
	cr := in.trainer().CompressionRatio()
	for tb := range rs.Data().Cardinalities {
		for r := 0; r < rs.Ranks; r++ {
			if r != tb%rs.Ranks {
				rows := float64(rp.count[r] * rs.Dim * 4)
				fwd += wireFrameHeader + rows/cr
				bwd += wireFrameHeader + rows
			}
		}
	}
	m.set("dist.wire_fwd_bytes_per_step", fwd)
	m.set("dist.wire_bwd_bytes_per_step", bwd)
	return nil
}
