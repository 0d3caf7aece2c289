package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/scenario"
	"dlrmcomp/internal/serve"
	"dlrmcomp/internal/tensor"
)

const (
	fixtureSteps = 30   // training steps behind the served checkpoint
	serveBatch   = 64   // samples per ScoreBatch call
	checkEvery   = 16   // every 16th op is compared with the reference server
	quantTol     = 0.05 // score tolerance of the lossy cold codec (dlrmserve -parity)
	probeBatches = 30   // batches behind each of the store and scorer probes
)

// serveWorkload describes one serving workload over the shared checkpoint.
type serveWorkload struct {
	name        string
	online      bool // single requests through Server.Score; else ScoreBatch calls
	warm, timed int
	options     func(rawBytes int64) serve.Options
}

func (w serveWorkload) workload(why string) workload {
	return workload{name: w.name, why: why, run: w.run}
}

var serveOnlineZipf = serveWorkload{
	name: "serve-online-zipf", online: true, warm: 2048, timed: 16000,
	options: func(int64) serve.Options { return serve.Options{Shards: 2, ColdCodec: "lzss"} },
}.workload("closed-loop Score requests over the Zipf stream: the hot cache absorbs the lookups, so queueing, linger and timer slack of the micro-batching service set the latency")

var serveBatchCold = serveWorkload{
	name: "serve-batch-cold", warm: 200, timed: 4000,
	options: func(raw int64) serve.Options {
		return serve.Options{Shards: 2, ColdCodec: "quant", QuantEB: 0.005, HotBytes: raw / 64}
	},
}.workload("ScoreBatch calls with uniform-random rows and a small hot cache: the queue is bypassed and cold-block decode under the shard lock dominates, so a linger change must leave it flat")

// serveInst is one set-up of a serve workload: the loaded server and every
// request of the run, laid out so that op i reads rows [i·per, (i+1)·per)
// of the pools (per = 1 online, serveBatch otherwise).
type serveInst struct {
	w      serveWorkload
	rs     scenario.Spec
	ckpt   []byte
	opts   serve.Options
	srv    *serve.Server
	per    int
	dense  *tensor.Matrix // [ops·per, DenseFeatures]
	cols   [][]int32      // [table][ops·per], what ScoreBatch reads
	rows   []int32        // [ops·per][table], what Score reads
	scores []float32      // [ops·per], written by the ops
	warmN  int
	gen    *criteo.Generator
	rng    *tensor.RNG
	loadMs float64
	fixMs  float64 // fixture training + checkpoint save
}

// fixture trains the model every serve workload loads: 30 steps at 4 ranks
// with the paper's codec, saved as a DLCK checkpoint. The generator is
// returned so requests continue the stream after the training batches.
func fixture(p *pass) (scenario.Spec, []byte, *criteo.Generator, error) {
	s := baseSpec(p.cfg.seed)
	s.Ranks, s.Codec, s.ErrorBound, s.Batch = 4, "hybrid", 0.01, trainBatch
	b, err := s.Build()
	if err != nil {
		return s, nil, nil, err
	}
	defer b.Trainer.Close()
	for i := 0; i < max(3, int(fixtureSteps*p.cfg.scale)); i++ {
		if _, err := b.Trainer.Step(b.Gen.NextBatch(b.Spec.Batch)); err != nil {
			return s, nil, nil, err
		}
	}
	var buf bytes.Buffer
	if _, err := b.Trainer.SaveCheckpoint(&buf, dist.CheckpointOptions{}); err != nil {
		return s, nil, nil, err
	}
	return b.Spec, buf.Bytes(), b.Gen, nil
}

func rawTableBytes(rs scenario.Spec) int64 {
	var rows int64
	for _, c := range rs.Data().Cardinalities {
		rows += int64(c)
	}
	return rows * int64(rs.Dim) * 4
}

// grow appends n ops' worth of requests to the pools: the next samples of
// the Zipf stream online, or uniform-random rows and normal dense features
// from the harness RNG.
func (in *serveInst) grow(n int) {
	tables := in.rs.Data().Cardinalities
	if in.cols == nil {
		in.cols = make([][]int32, len(tables))
		in.dense = tensor.NewMatrix(0, in.rs.Data().DenseFeatures)
	}
	add := n * in.per
	if in.w.online {
		b := in.gen.NextBatch(add)
		in.dense.Data = append(in.dense.Data, b.Dense.Data...)
		for t := range in.cols {
			in.cols[t] = append(in.cols[t], b.Indices[t]...)
		}
	} else {
		d := make([]float32, add*in.dense.Cols)
		in.rng.FillNormal(d, 0, 1)
		in.dense.Data = append(in.dense.Data, d...)
		for t, card := range tables {
			for k := 0; k < add; k++ {
				in.cols[t] = append(in.cols[t], int32(in.rng.Intn(card)))
			}
		}
	}
	from := in.dense.Rows
	in.dense.Rows += add
	for i := from; i < in.dense.Rows; i++ {
		for t := range in.cols {
			in.rows = append(in.rows, in.cols[t][i])
		}
	}
	in.scores = append(in.scores, make([]float32, add)...)
}

// batch returns op i's view of the pools.
func (in *serveInst) batch(i int, cols [][]int32) (*tensor.Matrix, [][]int32, []float32) {
	lo, hi := i*in.per, (i+1)*in.per
	for t := range cols {
		cols[t] = in.cols[t][lo:hi]
	}
	d := &tensor.Matrix{Rows: in.per, Cols: in.dense.Cols, Data: in.dense.Data[lo*in.dense.Cols : hi*in.dense.Cols]}
	return d, cols, in.scores[lo:hi]
}

// op returns the workload's op on ops [base, ...): one Score request, or
// one ScoreBatch call on the caller's own index views.
func (in *serveInst) op(srv *serve.Server, base, callers int) func(caller, i, root int) error {
	tables := len(in.cols)
	if in.w.online {
		return func(_, i, _ int) error {
			i += base
			score, err := srv.Score(in.dense.Row(i), in.rows[i*tables:(i+1)*tables])
			in.scores[i] = score
			return err
		}
	}
	views := make([][][]int32, max(1, callers))
	for c := range views {
		views[c] = make([][]int32, tables)
	}
	return func(caller, i, _ int) error {
		d, cols, out := in.batch(i+base, views[caller])
		return srv.ScoreBatch(d, cols, out)
	}
}

func (w serveWorkload) setup(p *pass) (*serveInst, error) {
	in := &serveInst{w: w, per: serveBatch, rng: tensor.NewRNG(p.cfg.seed)}
	if w.online {
		in.per = 1
	}
	t0 := time.Now()
	var err error
	if in.rs, in.ckpt, in.gen, err = fixture(p); err != nil {
		return nil, err
	}
	in.fixMs = msSince(t0)
	in.opts = w.options(rawTableBytes(in.rs))
	t0 = time.Now()
	if in.srv, err = serve.New(in.rs.ModelConfig(), bytes.NewReader(in.ckpt), in.opts); err != nil {
		return nil, err
	}
	in.loadMs = msSince(t0)
	in.warmN = p.ops(w.warm)
	in.grow(in.warmN)
	if _, failed := runOps(in.warmN, 0, p.cfg.callers, nil, "", 0, in.op(in.srv, 0, p.cfg.callers)); failed > 0 {
		in.srv.Close()
		return nil, fmt.Errorf("%s: %d warm ops failed", w.name, failed)
	}
	in.grow(p.pool(w.timed))
	return in, nil
}

func (w serveWorkload) run(p *pass) (*passResult, error) {
	in, setupS, err := medianSetup(p.setups, func() (*serveInst, error) { return w.setup(p) },
		func(in *serveInst) { in.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer in.srv.Close()
	r := newPassResult()
	r.warm = countPhase(in.warmN, 0)

	name := "Server.ScoreBatch"
	if w.online {
		name = "Server.Score"
	}
	st0 := in.srv.Stats()
	var log *opLog
	var failed int
	pool := in.dense.Rows/in.per - in.warmN
	p.beginTimed()
	used := measured(func() {
		log, failed = runOps(pool, p.deadline(), p.cfg.callers, p.tr, name, 0, in.op(in.srv, in.warmN, p.cfg.callers))
	})
	p.endTimed(r, log, 0)
	timed := log.n()
	st := in.srv.Stats()
	r.timed = countPhase(timed, failed)
	r.timing(log, float64(in.per))
	p99, p99Segs := log.pct(0.99)
	r.e2e.set("latency_ms_p99", p99, p99Segs...)
	if err := w.check(r, in, timed); err != nil {
		return nil, err
	}

	r.e2e.set("setup_s", setupS)
	r.e2e.set("compression_ratio", st.ColdRatio())
	r.e2e.set("resident_mb", float64(st.HotBytes+st.ColdBytes)/1e6)
	r.e2e.set("alloc_kb_per_op", float64(used.bytes)/1e3/float64(timed))
	if !p.traced() {
		return r, nil
	}
	m := r.layer
	lookups := float64(st.Hits + st.Misses - st0.Hits - st0.Misses)
	m.set("serve.load_ms", in.loadMs)
	m.set("scenario.build_ms", in.fixMs)
	m.set("serve.store.hit_rate", float64(st.Hits-st0.Hits)/lookups)
	m.set("serve.store.misses_per_op", float64(st.Misses-st0.Misses)/float64(timed))
	m.set("serve.store.cold_ratio", st.ColdRatio())
	m.set("serve.service.shed", float64(st.Shed))
	return r, w.probeLayers(p, r, in, timed)
}

// check compares every 16th op of the timed phase with a reference server
// that holds the checkpoint raw and uncached: bit for bit under a lossless
// cold codec, within quantTol under the lossy one.
func (w serveWorkload) check(r *passResult, in *serveInst, timed int) error {
	ref, err := serve.New(in.rs.ModelConfig(), bytes.NewReader(in.ckpt), serve.Options{ColdCodec: "raw", HotBytes: -1})
	if err != nil {
		return err
	}
	defer ref.Close()
	lossless := in.opts.ColdCodec != "quant"
	cols := make([][]int32, len(in.cols))
	want := make([]float32, in.per)
	for i := in.warmN; i < in.warmN+timed; i += checkEvery {
		d, c, got := in.batch(i, cols)
		if err := ref.ScoreBatch(d, c, want); err != nil {
			return err
		}
		for k := range want {
			bad := math.Float32bits(got[k]) != math.Float32bits(want[k])
			if !lossless {
				bad = !(math.Abs(float64(got[k]-want[k])) <= quantTol)
			}
			if bad {
				r.failf("op %d sample %d scored %v, the raw uncached reference %v", i, k, got[k], want[k])
				return nil
			}
		}
	}
	return nil
}

// probeLayers runs the traced pass's serve probes after the timed phase.
func (w serveWorkload) probeLayers(p *pass, r *passResult, in *serveInst, timed int) error {
	m, callers := r.layer, p.cfg.callers
	base := in.dense.Rows / in.per // past the pool, used or not
	probe := max(10, timed/4)
	in.grow(probe)

	// Caller scaling: the same op from one caller, on requests not yet seen,
	// against the traced phase's rate from P callers.
	log, failed := runOps(probe, 0, 1, nil, "", 0, in.op(in.srv, base, 1))
	if failed > 0 {
		return fmt.Errorf("%s: %d single-caller ops failed", w.name, failed)
	}
	one, _ := log.rate(float64(in.per))
	m.set("serve.caller_scaling", r.rate/one)

	// Scorer and store: one 64-sample batch scored until every row is hot,
	// against the same batches on a server that may cache nothing.
	cold, err := serve.New(in.rs.ModelConfig(), bytes.NewReader(in.ckpt), serve.Options{
		Shards: in.opts.Shards, ColdCodec: in.opts.ColdCodec, QuantEB: in.opts.QuantEB, HotBytes: -1})
	if err != nil {
		return err
	}
	defer cold.Close()
	bt := serveInst{w: serveWorkload{}, rs: in.rs, per: serveBatch, rng: tensor.NewRNG(p.cfg.seed + 1)}
	bt.grow(1)
	hotOp := bt.op(in.srv, 0, 1)
	coldOp := bt.op(cold, 0, 1)
	if err := errors.Join(hotOp(0, 0, 0), coldOp(0, 0, 0)); err != nil {
		return err
	}
	hot, _ := runOps(probeBatches, 0, 1, p.tr, "Server.ScoreBatch/hot", base, func(c, _, root int) error { return hotOp(c, 0, root) })
	miss, _ := runOps(probeBatches, 0, 1, p.tr, "Server.ScoreBatch/uncached", base, func(c, _, root int) error { return coldOp(c, 0, root) })
	hotMs, missMs := median(hot.ms()), median(miss.ms())
	m.set("serve.scorer.hot_batch_ms", hotMs)
	m.set("serve.store.miss_us", (missMs-hotMs)*1e3/float64(serveBatch*len(in.cols)))

	if !w.online {
		return nil
	}
	// Service overhead: the traced requests again as caller-assembled
	// batches of P, which skip the queue, the linger and the reply.
	groups := min(timed/callers, 512)
	g := serveInst{per: callers, dense: in.dense, cols: in.cols, scores: make([]float32, len(in.scores))}
	first := in.warmN / callers
	direct, failed := runOps(groups, 0, 1, nil, "", 0, g.op(in.srv, first+1, 1))
	if failed > 0 {
		return fmt.Errorf("%s: %d grouped ScoreBatch calls failed", w.name, failed)
	}
	m.set("serve.service.overhead_ms_p50", r.p50-median(direct.ms()))
	return nil
}
