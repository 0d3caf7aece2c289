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
// link. Step sums them serially; the pipelined driver replays them onto a
// netmodel.Timeline so transfer components overlap compute.
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

// serial is the synchronous step cost: every component back to back.
func (s stepStats) serial() time.Duration {
	return s.lookup + s.compress + s.fwd.Total() + s.decompress +
		s.mlp + s.other + s.bwd.Total() + s.allreduce
}

// Step runs one synchronous training iteration over the global batch:
//
//  1. owners gather each table's lookups and scatter them shard-wise through
//     the (optionally compressed) forward all-to-all;
//  2. every rank runs forward/backward over its batch shard on its MLP
//     replica;
//  3. lookup gradients return to the table owners through the backward
//     all-to-all and are scattered into the sharded tables;
//  4. dense MLP gradients are all-reduced and applied in lockstep.
//
// The returned loss is the global-batch mean BCE. With one rank and no
// codec this reproduces model.DLRM.TrainStep bit-for-bit. If any rank
// fails (e.g. a codec error), the step completes its collectives but
// applies no parameter updates, so an errored Step leaves the model as it
// was.
//
// Every buffer the step touches lives in per-rank workspaces allocated in
// NewTrainer, so steady-state stepping performs only a small, bounded
// number of allocations (goroutine fan-out and collective handles); the
// per-table codec work inside a rank fans out across the trainer's codec
// workers when cores are spare.
func (t *Trainer) Step(b *criteo.Batch) (float32, error) {
	loss, _, err := t.runStep(b)
	return loss, err
}

// runStep executes the step's math and bucket accounting and additionally
// returns the step's modelled component costs for schedulers. The math and
// every charged bucket are identical no matter which driver (Step or
// RunPipelined) calls it — only how the components compose into an
// end-to-end time differs between drivers.
func (t *Trainer) runStep(b *criteo.Batch) (float32, stepStats, error) {
	n := b.N()
	ranks := t.opts.Ranks
	numTables := len(t.opts.Model.TableSizes)
	dim := t.opts.Model.EmbeddingDim
	if n == 0 {
		return 0, stepStats{}, fmt.Errorf("dist: empty batch")
	}
	if len(b.Indices) != numTables {
		return 0, stepStats{}, fmt.Errorf("dist: batch has %d index slices for %d tables", len(b.Indices), numTables)
	}
	for tb, idx := range b.Indices {
		if len(idx) != n {
			return 0, stepStats{}, fmt.Errorf("dist: table %d has %d indices for %d samples", tb, len(idx), n)
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
		// aligned, and the OrFlag exchange below makes every rank skip the
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

		// --- stage 1: owners gather lookups, compress, fuse, exchange ---
		cnt := count[r]
		for tb := range ws.got {
			ws.got[tb] = false
			ws.gotGrad[tb] = false
		}
		owned := t.owned[r]
		t.parallelDo(len(owned), func(k int) {
			tb := owned[k]
			ws.tblErr[tb] = nil
			ws.tblCompDur[tb] = 0
			ws.tblRawBytes[tb], ws.tblCmpBytes[tb] = 0, 0
			tab := t.tmpl.Emb.Tables[tb]
			c := t.codecFor(tb)
			for dst := 0; dst < ranks; dst++ {
				buf := ws.tblFrame[tb][dst][:0]
				ws.tblFrame[tb][dst] = buf
				if count[dst] == 0 {
					continue
				}
				idx := b.Indices[tb][start[dst] : start[dst]+count[dst]]
				if dst == r {
					// The local shard never crosses the wire (and is never
					// compressed): gather it straight into the lookup slot.
					ws.lookups[tb] = ws.lookups[tb].Resize(count[dst], dim)
					tab.LookupIntoWorkers(ws.lookups[tb], idx, t.computeWorkers)
					ws.got[tb] = true
					continue
				}
				ws.tblChunk[tb] = ws.tblChunk[tb].Resize(count[dst], dim)
				chunk := ws.tblChunk[tb]
				tab.LookupIntoWorkers(chunk, idx, t.computeWorkers)
				if c == nil {
					ws.tblFrame[tb][dst] = appendFrameFloats(buf, tb, chunk.Data)
					continue
				}
				framed, hdrOff := appendFrameHeader(buf, tb, encCodec)
				out, err := c.CompressAppend(framed, chunk.Data, dim)
				if err != nil {
					// Record the failure but keep the exchange aligned by
					// falling back to the raw payload.
					if ws.tblErr[tb] == nil {
						ws.tblErr[tb] = fmt.Errorf("dist: rank %d table %d compress: %w", r, tb, err)
					}
					ws.tblFrame[tb][dst] = appendFrameFloats(ws.tblFrame[tb][dst][:0], tb, chunk.Data)
					continue
				}
				patchFrameLen(out, hdrOff)
				ws.tblFrame[tb][dst] = out
				raw := int64(len(chunk.Data)) * 4
				ws.tblCompDur[tb] += netmodel.CodecTime(raw, t.rates[tb].Compress)
				ws.tblRawBytes[tb] += raw
				ws.tblCmpBytes[tb] += int64(len(out) - hdrOff - frameHeaderBytes)
			}
		})
		// Fuse the per-table frames into one buffer per peer, in table
		// order, so the wire bytes match the sequential path exactly.
		for dst := 0; dst < ranks; dst++ {
			ws.send[dst] = ws.send[dst][:0]
		}
		sc.lookupBytes[r] = int64(len(owned)) * int64(n) * int64(dim) * 4
		for _, tb := range owned {
			if ws.tblErr[tb] != nil {
				fail(ws.tblErr[tb])
			}
			sc.compDur[r] += ws.tblCompDur[tb]
			sc.fwdRaw[r] += ws.tblRawBytes[tb]
			sc.fwdComp[r] += ws.tblCmpBytes[tb]
			for dst := 0; dst < ranks; dst++ {
				if len(ws.tblFrame[tb][dst]) > 0 {
					ws.send[dst] = append(ws.send[dst], ws.tblFrame[tb][dst]...)
				}
			}
		}
		fwdOp := rank.IAllToAllV(ws.send, t.anyCodec, "fwd-a2a", t.opts.Algo)
		recv, err := fwdOp.Await()
		if err != nil {
			abort(err)
			return
		}
		if r == 0 {
			st.fwd = fwdOp.Cost()
		}

		// --- stage 2: reconstruct the local shard's lookups ---
		ws.decJobs = ws.decJobs[:0]
		for from := 0; from < ranks; from++ {
			err := parseFrames(recv[from], func(tb int, enc byte, payload []byte) error {
				if tb < 0 || tb >= numTables {
					return fmt.Errorf("dist: frame for unknown table %d", tb)
				}
				if ws.got[tb] {
					return fmt.Errorf("dist: duplicate lookup frame for table %d at rank %d", tb, r)
				}
				ws.got[tb] = true
				ws.decJobs = append(ws.decJobs, decJob{tb: tb, enc: enc, payload: payload})
				return nil
			})
			if err != nil {
				fail(err)
			}
		}
		t.parallelDo(len(ws.decJobs), func(k int) {
			j := ws.decJobs[k]
			tb := j.tb
			ws.tblErr[tb] = nil
			ws.tblDecDur[tb] = 0
			m := ws.lookups[tb].Resize(cnt, dim)
			ws.lookups[tb] = m
			switch j.enc {
			case encRaw:
				if err := bytesToFloats(m.Data, j.payload); err != nil {
					ws.tblErr[tb] = err
				}
			case encCodec:
				gotDim, err := t.codecFor(tb).DecompressInto(m.Data, j.payload)
				switch {
				case err != nil:
					ws.tblErr[tb] = fmt.Errorf("dist: table %d decompress: %w", tb, err)
				case gotDim != dim:
					ws.tblErr[tb] = fmt.Errorf("dist: table %d reconstruction has dim %d, want %d", tb, gotDim, dim)
				default:
					ws.tblDecDur[tb] = netmodel.CodecTime(int64(cnt*dim)*4, t.rates[tb].Decompress)
				}
			default:
				ws.tblErr[tb] = fmt.Errorf("dist: unknown frame encoding %d", j.enc)
			}
		})
		for _, j := range ws.decJobs {
			if ws.tblErr[j.tb] != nil {
				fail(ws.tblErr[j.tb])
			}
			sc.decompDur[r] += ws.tblDecDur[j.tb]
		}
		if cnt > 0 && sc.errs[r] == nil {
			for tb := range ws.lookups {
				if !ws.got[tb] {
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
			sc.losses[r] = loss
			// BCEWithLogits divides by the shard size; rescale so the
			// summed gradients equal the global-batch mean.
			if cnt != n {
				tensor.Scale(float32(cnt)/float32(n), ws.dLogits.Data)
			}
			dLookups = rp.m.Backward(ws.dLogits)
		}

		// --- stage 4: backward all-to-all routes lookup grads to owners ---
		// The gradient rows of this rank's own tables never leave it: like
		// the local lookups in stage 1 they skip the frame, straight into
		// the scatter scratch.
		for dst := 0; dst < ranks; dst++ {
			ws.send2[dst] = ws.send2[dst][:0]
		}
		if dLookups != nil {
			for tb := 0; tb < numTables; tb++ {
				if dst := t.owner(tb); dst != r {
					ws.send2[dst] = appendFrameFloats(ws.send2[dst], tb, dLookups[tb].Data)
				} else {
					copy(ws.gradRows(tb, n, dim, start[r], cnt), dLookups[tb].Data)
				}
			}
		}
		bwdOp := rank.IAllToAllV(ws.send2, false, "bwd-a2a", t.opts.Algo)
		recv2, err := bwdOp.Await()
		if err != nil {
			abort(err)
			return
		}
		if r == 0 {
			st.bwd = bwdOp.Cost()
		}

		for from := 0; from < ranks; from++ {
			err := parseFrames(recv2[from], func(tb int, enc byte, payload []byte) error {
				if tb < 0 || tb >= numTables || t.owner(tb) != r || enc != encRaw {
					return fmt.Errorf("dist: bad gradient frame (table %d, enc %d) at rank %d", tb, enc, r)
				}
				return bytesToFloats(ws.gradRows(tb, n, dim, start[from], count[from]), payload)
			})
			if err != nil {
				fail(err)
			}
		}
		// Agree fleet-wide on whether any rank failed in stages 1-4 (there
		// are no failure sources between here and the optimizer): if one
		// did, every rank skips all updates so the model stays untouched.
		stepBad, err := rank.OrFlag(sc.errs[r] != nil)
		if err != nil {
			abort(err)
			return
		}
		if !stepBad {
			// Scatter in table order so duplicate-index accumulation
			// matches the single-process trainer.
			for tb := 0; tb < numTables; tb++ {
				if t.owner(tb) != r || !ws.gotGrad[tb] {
					continue
				}
				t.tmpl.Emb.Tables[tb].ApplySGD(
					embedding.SparseGrad{Indices: b.Indices[tb], Grad: ws.gradOf[tb]}, t.opts.EmbLR)
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

		// Publish this rank's statistics so every process aggregates the
		// step's global accounting from identical inputs.
		var errStr string
		if sc.errs[r] != nil {
			errStr = sc.errs[r].Error()
		}
		ws.statsBlob = appendRankStats(ws.statsBlob[:0], rankStats{
			loss:        sc.losses[r],
			lookupBytes: sc.lookupBytes[r],
			compress:    sc.compDur[r],
			decompress:  sc.decompDur[r],
			fwdRaw:      sc.fwdRaw[r],
			fwdComp:     sc.fwdComp[r],
			errStr:      errStr,
		})
		if err := rank.GatherAll(ws.statsBlob, ws.gathered); err != nil {
			abort(err)
		}
	})

	// A transport failure leaves no coherent global statistics; surface it
	// directly (hosted ranks only — peers observe their own copy).
	local := t.cl.Local()
	for _, r := range local {
		if sc.fatal[r] {
			return 0, stepStats{}, sc.errs[r]
		}
	}
	// Fill the rank-indexed accounting from the gathered records — globally
	// identical, so distributed processes aggregate the same values the
	// all-in-process run computes directly.
	for r, rec := range t.ws[local[0]].gathered {
		s, err := decodeRankStats(rec)
		if err != nil {
			return 0, stepStats{}, fmt.Errorf("dist: rank %d step stats: %w", r, err)
		}
		sc.losses[r] = s.loss
		sc.lookupBytes[r] = s.lookupBytes
		sc.compDur[r] = s.compress
		sc.decompDur[r] = s.decompress
		sc.fwdRaw[r] = s.fwdRaw
		sc.fwdComp[r] = s.fwdComp
		if sc.errs[r] == nil && s.errStr != "" {
			sc.errs[r] = errors.New(s.errStr)
		}
	}

	for _, err := range sc.errs {
		if err != nil {
			return 0, stepStats{}, err
		}
	}

	// Charge modelled compute once per step for the parallel device fleet
	// (the busiest rank bounds the synchronous step).
	maxCnt := 0
	for _, c := range count {
		maxCnt = max(maxCnt, c)
	}
	st.mlp = t.opts.Device.MLPTime(t.stepFlops(maxCnt))
	t.cl.AddSimTime("mlp", st.mlp)
	if t.opts.OtherComputeFactor > 0 {
		st.other = time.Duration(t.opts.OtherComputeFactor * float64(st.mlp))
		t.cl.AddSimTime("other", st.other)
	}
	st.lookup = t.opts.Device.LookupTime(maxInt64(sc.lookupBytes))
	t.cl.AddSimTime("lookup", st.lookup)
	if d := maxDur(sc.compDur); d > 0 {
		st.compress = d
		t.cl.AddSimTime("compress", d)
	}
	if d := maxDur(sc.decompDur); d > 0 {
		st.decompress = d
		t.cl.AddSimTime("decompress", d)
	}
	for r := 0; r < ranks; r++ {
		t.fwdRawBytes += sc.fwdRaw[r]
		t.fwdCompBytes += sc.fwdComp[r]
	}

	if ranks == 1 {
		return sc.losses[0], st, nil
	}
	var loss float64
	for r := 0; r < ranks; r++ {
		loss += float64(sc.losses[r]) * float64(count[r])
	}
	return float32(loss / float64(n)), st, nil
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

func maxInt64(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func maxDur(xs []time.Duration) time.Duration {
	var m time.Duration
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
