package dist

import (
	"errors"
	"fmt"
	"time"

	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/embedding"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/nn"
	"dlrmcomp/internal/tensor"
)

// shardBoundsInto splits n samples into len(start) contiguous shards; the
// first n%R shards hold one extra sample.
func shardBoundsInto(n int, start, count []int) {
	ranks := len(start)
	base, rem := n/ranks, n%ranks
	s := 0
	for r := 0; r < ranks; r++ {
		c := base
		if r < rem {
			c++
		}
		start[r], count[r] = s, c
		s += c
	}
}

// stepFlops models one rank's MLP forward+backward FLOPs for a shard of the
// given size: samples × the per-sample MAC total computed once in
// NewTrainer (each MAC costs 2 FLOPs forward and 4 backward, including the
// pairwise-dot feature interaction).
func (t *Trainer) stepFlops(samples int) float64 {
	return 6 * t.stepMacs * float64(samples)
}

// stepMacsFor computes the per-sample MAC count of cfg's MLPs and feature
// interaction (dW and dX double-count handled by stepFlops's factor).
func stepMacsFor(cfg model.Config) float64 {
	macs := 0
	prev := cfg.DenseFeatures
	for _, h := range cfg.BottomMLP {
		macs += prev * h
		prev = h
	}
	macs += prev * cfg.EmbeddingDim
	f := len(cfg.TableSizes) + 1
	prev = cfg.EmbeddingDim + f*(f-1)/2 // interaction output feeds the top MLP
	for _, h := range cfg.TopMLP {
		macs += prev * h
		prev = h
	}
	macs += prev * 1
	macs += f * (f - 1) / 2 * cfg.EmbeddingDim // interaction dots
	return float64(macs)
}

// stepStats decomposes one training step into the modelled durations of
// its components, each tagged (implicitly) with the resource it occupies:
// lookup/compress/decompress/mlp/other run on the device lane, the two
// all-to-alls on the intra-/inter-node links, the allreduce on the inter
// link. The buckets sum them serially; the overlapped clock books them onto
// a netmodel.Timeline so transfer components overlap compute.
type stepStats struct {
	lookup     time.Duration
	compress   time.Duration
	decompress time.Duration
	mlp        time.Duration
	other      time.Duration
	fwd        netmodel.LinkCost // forward all-to-all, metadata included
	bwd        netmodel.LinkCost // backward all-to-all
	allreduce  time.Duration
}

// Step runs one synchronous training iteration over the global batch:
//
//  1. owners gather each table's lookups and scatter them shard-wise through
//     the (optionally compressed) forward all-to-all;
//  2. every rank runs forward/backward over its batch shard on its MLP
//     replica;
//  3. lookup gradients return to the table owners through the backward
//     all-to-all (the same exchange, codec nil) and are scattered;
//  4. dense MLP gradients are all-reduced and applied in lockstep.
//
// The returned loss is the global-batch mean BCE. With one rank and no
// codec this reproduces model.DLRM.TrainStep bit-for-bit. If any rank
// fails (e.g. a codec error), the step completes its collectives but
// applies no parameter updates, so an errored Step leaves the model as it
// was. A successful Step books its modelled costs on the overlapped clock
// (see OverlappedSimTime) after the math is done.
//
// Every buffer the step touches lives in per-rank workspaces allocated in
// NewTrainer, so steady-state stepping performs only a small, bounded
// number of allocations (goroutine fan-out and collective handles); the
// codec work inside a rank fans out at the trainer's intra-rank width
// when cores are spare.
func (t *Trainer) Step(b *criteo.Batch) (float32, error) {
	n := b.N()
	ranks := t.opts.Ranks
	numTables := len(t.opts.Model.TableSizes)
	dim := t.opts.Model.EmbeddingDim
	if n == 0 {
		return 0, fmt.Errorf("dist: empty batch")
	}
	if len(b.Indices) != numTables {
		return 0, fmt.Errorf("dist: batch has %d index slices for %d tables", len(b.Indices), numTables)
	}
	for tb, idx := range b.Indices {
		if len(idx) != n {
			return 0, fmt.Errorf("dist: table %d has %d indices for %d samples", tb, len(idx), n)
		}
	}
	iter := t.iter
	t.iter++

	// Iteration-wise adaptive error bounds: tune sequentially before the
	// rank fan-out so codec state is only read concurrently.
	if t.opts.Controller != nil {
		for tb, c := range t.codecs {
			if eb, ok := c.(codec.ErrorBounded); ok {
				eb.SetErrorBound(t.opts.Controller.EBAt(tb, iter))
			}
		}
	}

	sc := &t.scr
	sc.reset()
	shardBoundsInto(n, sc.start, sc.count)
	start, count := sc.start, sc.count
	// st collects the step's modelled component costs. Collective costs are
	// written by rank 0's goroutine only; device components are filled in
	// after the fan-out joins. Run's WaitGroup orders both against the
	// final read.
	var st stepStats

	t.cl.Run(func(rank *cluster.Rank) {
		r := rank.ID
		ws := t.ws[r]
		// fail records a step-level failure (e.g. a codec error) and keeps
		// going: the rank still runs its collectives so the fleet stays
		// aligned, and the stats gather below makes every rank skip the
		// parameter updates — an errored Step leaves the model untouched.
		// abort is for transport failures: the fabric itself is broken, so
		// the rank records the error and bails out (every peer's collectives
		// are failing the same way; nobody is left blocking).
		fail := func(err error) {
			if sc.errs[r] == nil {
				sc.errs[r] = err
			}
		}
		abort := func(err error) {
			if sc.errs[r] == nil {
				sc.errs[r] = err
			}
			sc.fatal[r] = true
		}

		// --- stages 1-2: owners gather lookups; the exchange delivers them ---
		// Each owner gathers a table's rows for the whole batch once; every
		// destination's shard is a row range of that gather. The rank's own
		// shard never crosses the wire: its lookup slot is a view of those
		// rows, so the exchange's self-route has nothing to move.
		cnt := count[r]
		owned := t.owned[r]
		x := ws.x
		x.reset(t.codecs)
		for _, tb := range owned {
			g := ws.gather[tb].Resize(n, dim)
			ws.gather[tb] = g
			t.tmpl.Emb.Tables[tb].LookupIntoWorkers(g, b.Indices[tb], t.width)
			for dst := 0; dst < ranks; dst++ {
				x.send(tb, dst, g.Data[start[dst]*dim:(start[dst]+count[dst])*dim])
			}
			v := ws.lookups[tb]
			v.Rows, v.Cols, v.Data = cnt, dim, g.Data[start[r]*dim:(start[r]+cnt)*dim]
		}
		for tb := range ws.lookups {
			if t.owner(tb) != r {
				ws.lookups[tb] = ws.lookups[tb].Resize(cnt, dim)
			}
			x.expect(tb, t.owner(tb), ws.lookups[tb].Data)
		}
		rs := &sc.stats[r]
		rs.lookupBytes = int64(len(owned)) * int64(n) * int64(dim) * 4
		fwd, err := x.run(rank, "fwd-a2a", ws.send, fail)
		if err != nil {
			abort(err)
			return
		}
		if r == 0 {
			st.fwd = fwd
		}
		rs.compress, rs.decompress, rs.fwdRaw, rs.fwdComp = x.encode, x.decode, x.raw, x.comp
		if cnt > 0 && sc.errs[r] == nil {
			for tb := range ws.lookups {
				if !x.arrived(tb, t.owner(tb)) {
					fail(fmt.Errorf("dist: rank %d received no lookups for table %d", r, tb))
					break
				}
			}
		}

		// --- stage 3: local forward/backward on the shard ---
		var dLookups []*tensor.Matrix
		rp := t.replicas[r]
		rp.m.ZeroGrad() // ranks without samples contribute zero gradients
		if cnt > 0 && sc.errs[r] == nil {
			if t.fwdHook != nil {
				for tb := 0; tb < numTables; tb++ {
					t.fwdHook(r, tb, ws.lookups[tb], b.Indices[tb][start[r]:start[r]+cnt])
				}
			}
			// The dense shard aliases the batch's contiguous row range: the
			// model only reads its inputs, so no defensive copy is needed.
			dense := ws.denseView
			dense.Rows, dense.Cols = cnt, b.Dense.Cols
			dense.Data = b.Dense.Data[start[r]*b.Dense.Cols : (start[r]+cnt)*b.Dense.Cols]
			labels := b.Labels[start[r] : start[r]+cnt]
			logits := rp.m.ForwardFromLookups(dense, ws.lookups)
			ws.dLogits = ws.dLogits.Resize(cnt, 1)
			loss := nn.BCEWithLogitsInto(ws.dLogits, logits, labels)
			rs.loss = loss
			// BCEWithLogits divides by the shard size; rescale so the
			// summed gradients equal the global-batch mean.
			if cnt != n {
				tensor.Scale(float32(cnt)/float32(n), ws.dLogits.Data)
			}
			dLookups = rp.m.Backward(ws.dLogits)
		}

		// --- stage 4: the same exchange, codec nil, routes lookup gradients
		// to the owners; each lands in its source's row range of the owner's
		// scatter scratch. A rank that has no rows or has failed sends none.
		x.reset(nil)
		for _, tb := range owned {
			g := ws.gradOf[tb].Resize(n, dim)
			ws.gradOf[tb] = g
			for src := 0; src < ranks; src++ {
				x.expect(tb, src, g.Data[start[src]*dim:(start[src]+count[src])*dim])
			}
		}
		for tb, g := range dLookups {
			x.send(tb, t.owner(tb), g.Data)
		}
		bwd, err := x.run(rank, "bwd-a2a", ws.send2, fail)
		if err != nil {
			abort(err)
			return
		}
		if r == 0 {
			st.bwd = bwd
		}
		// Publish this rank's statistics, its error included, so every
		// process aggregates the step's global accounting from identical
		// inputs and agrees on whether any rank failed in stages 1-4 (there
		// are no failure sources between here and the optimizer): if one
		// did, every rank skips all updates so the model stays untouched.
		pub := *rs
		if sc.errs[r] != nil {
			pub.errStr = sc.errs[r].Error()
		}
		ws.statsBlob = appendRankStats(ws.statsBlob[:0], pub)
		if err := rank.GatherAll(ws.statsBlob, ws.gathered); err != nil {
			abort(err)
			return
		}
		stepBad := anyRankFailed(ws.gathered)
		if !stepBad {
			// Scatter in table order so duplicate-index accumulation
			// matches the single-process trainer.
			for _, tb := range owned {
				t.tmpl.Emb.Tables[tb].ApplySGD(
					embedding.SparseGrad{Indices: b.Indices[tb], Grad: ws.gradOf[tb]}, DefaultEmbLR)
			}
		}

		// --- stage 5: data-parallel gradient AllReduce + optimizer ---
		flattenGrads(ws.params, ws.gradBuf)
		arOp := rank.IAllReduceSum(ws.gradBuf, "allreduce")
		if err := arOp.Await(); err != nil {
			abort(err)
			return
		}
		if r == 0 {
			st.allreduce = arOp.Cost()
		}
		if !stepBad {
			unflattenGrads(ws.gradBuf, ws.params)
			rp.opt.Step(ws.params)
		}
	})

	// A transport failure leaves no coherent global statistics; surface it
	// directly (hosted ranks only — peers observe their own copy).
	local := t.cl.Local()
	for _, r := range local {
		if sc.fatal[r] {
			return 0, sc.errs[r]
		}
	}
	// Fill the rank-indexed accounting from the gathered records — globally
	// identical, so distributed processes aggregate the same values the
	// all-in-process run computes directly.
	for r, rec := range t.ws[local[0]].gathered {
		s, err := decodeRankStats(rec)
		if err != nil {
			return 0, fmt.Errorf("dist: rank %d step stats: %w", r, err)
		}
		sc.stats[r] = s
		if sc.errs[r] == nil && s.errStr != "" {
			sc.errs[r] = errors.New(s.errStr)
		}
	}

	for _, err := range sc.errs {
		if err != nil {
			return 0, err
		}
	}

	// Charge modelled compute once per step for the parallel device fleet
	// (the busiest rank bounds the synchronous step).
	maxCnt, lookupBytes := 0, int64(0)
	var loss float64
	for r, s := range sc.stats {
		maxCnt, lookupBytes = max(maxCnt, count[r]), max(lookupBytes, s.lookupBytes)
		st.compress, st.decompress = max(st.compress, s.compress), max(st.decompress, s.decompress)
		t.fwdRawBytes += s.fwdRaw
		t.fwdCompBytes += s.fwdComp
		loss += float64(float64(s.loss) * float64(count[r]))
	}
	st.mlp = t.opts.Device.MLPTime(t.stepFlops(maxCnt))
	t.cl.AddSimTime("mlp", st.mlp)
	if t.opts.OtherComputeFactor > 0 {
		st.other = time.Duration(t.opts.OtherComputeFactor * float64(st.mlp))
		t.cl.AddSimTime("other", st.other)
	}
	st.lookup = t.opts.Device.LookupTime(lookupBytes)
	t.cl.AddSimTime("lookup", st.lookup)
	if st.compress > 0 {
		t.cl.AddSimTime("compress", st.compress)
	}
	if st.decompress > 0 {
		t.cl.AddSimTime("decompress", st.decompress)
	}
	t.clock.book(st, ranks)
	if ranks == 1 {
		return sc.stats[0].loss, nil
	}
	return float32(loss / float64(n)), nil
}

func flattenGrads(params []nn.Param, buf []float32) {
	o := 0
	for _, p := range params {
		copy(buf[o:], p.Grad)
		o += len(p.Grad)
	}
}

func unflattenGrads(buf []float32, params []nn.Param) {
	o := 0
	for _, p := range params {
		copy(p.Grad, buf[o:o+len(p.Grad)])
		o += len(p.Grad)
	}
}
