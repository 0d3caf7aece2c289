package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/cluster/tcptransport"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/profileutil"
	"dlrmcomp/internal/scenario"
)

const (
	trainBatch  = 1024
	evalSamples = 4096
	lossWindow  = 20 // steps averaged at each end of the loss curve
	lossGap     = 60 // steps between the two windows before they are compared
	tcpParity   = 20 // leading steps the TCP run must share with the in-process run
	inprocSteps = 30 // steps of the in-process twin that train-tcp2 is compared with
	tcpAttempts = 3  // rendezvous attempts of one TCP set-up, each on a fresh port
)

// trainWorkload describes one Trainer.Step workload.
type trainWorkload struct {
	name        string
	spec        func(seed uint64) scenario.Spec
	warm, timed int
	tcp         bool // one trainer per rank, each on its own loopback endpoint
	eval        bool // the whole model is in one process, so it can be evaluated
}

func (w trainWorkload) workload(why string) workload {
	return workload{name: w.name, why: why, run: w.run}
}

var trainComm8 = trainWorkload{
	name: "train-comm8", warm: 20, timed: 300, eval: true,
	spec: func(seed uint64) scenario.Spec {
		s := baseSpec(seed)
		s.Nodes, s.RanksPerNode, s.Topology = 2, 4, "hier"
		s.Codec, s.ErrorBound, s.Adaptive = "hybrid", 0.01, true
		s.Batch, s.Steps = trainBatch, 320 // Steps fixes the decay phase at 160 steps
		s.BottomMLP, s.TopMLP = []int{32}, []int{32}
		return s
	},
}.workload("the paper's configuration (8 ranks, hier 2x4, adaptive hybrid codec) with small MLPs, so embedding, codec, wire framing and collectives take the largest share a real step allows")

var trainDense1 = trainWorkload{
	name: "train-dense1", warm: 10, timed: 100, eval: true,
	spec: func(seed uint64) scenario.Spec {
		s := baseSpec(seed)
		s.Ranks, s.Codec, s.Batch = 1, "none", trainBatch
		s.BottomMLP, s.TopMLP = []int{256, 128}, []int{256, 128}
		return s
	},
}.workload("the plain single-worker baseline: no all-to-all, codec or fabric, so nn/tensor/interaction do the work and a cluster, hybrid or tcptransport change must leave it flat")

var trainTCP2 = trainWorkload{
	name: "train-tcp2", warm: 10, timed: 300, tcp: true,
	spec: func(seed uint64) scenario.Spec {
		s := baseSpec(seed)
		s.Ranks, s.Codec, s.ErrorBound, s.Batch = 2, "hybrid", 0.005, trainBatch
		return s
	},
}.workload("the same trainer over real loopback sockets at a tight fixed error bound: tcptransport framing, copies and syscalls become measurable")

// trainInst is one set-up of a train workload: the built trainers (one, or
// one per TCP rank), every batch of the run, and the warm phase's outcome.
type trainInst struct {
	w            trainWorkload
	rs           scenario.Spec // resolved
	built        []*scenario.Built
	eps          []cluster.Transport // TCP endpoints, by rank
	evalBatch    *criteo.Batch
	warmB        []*criteo.Batch
	timedB       []*criteo.Batch
	warmLosses   []float32
	buildMs      float64
	genMs        float64 // per batch
	rendezvousMs float64
}

func (in *trainInst) trainer() *dist.Trainer { return in.built[0].Trainer }

// freeLoopbackAddr asks the kernel for a free port and releases it, so
// parallel runs do not collide on a fixed rendezvous address.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// build assembles the trainers: Spec.Build, or for TCP one Dial plus
// Spec.BuildWorker per rank, each rank on its own goroutine.
func (in *trainInst) build(s scenario.Spec) error {
	if !in.w.tcp {
		b, err := s.Build()
		if err != nil {
			return err
		}
		in.built, in.rs = []*scenario.Built{b}, b.Spec
		return nil
	}
	s.Transport = "tcp"
	rs, err := s.Resolved()
	if err != nil {
		return err
	}
	in.rs = rs
	// Between freeLoopbackAddr and rank 0's Listen the port belongs to
	// nobody, so a failed rendezvous is tried again on another port.
	for attempt := 1; ; attempt++ {
		if err = in.buildTCP(s); err == nil || attempt == tcpAttempts {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: %s: set-up attempt %d failed, trying another port: %v\n", in.w.name, attempt, err)
	}
}

// buildTCP makes one attempt at the TCP trainers of spec s on a fresh
// rendezvous port; after a failure nothing of it is left open.
func (in *trainInst) buildTCP(s scenario.Spec) error {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return err
	}
	world := in.rs.Ranks
	in.built, in.eps = make([]*scenario.Built, world), make([]cluster.Transport, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			t0 := time.Now()
			ep, err := tcptransport.Dial(tcptransport.Options{Rank: rank, World: world, Addr: addr})
			if err != nil {
				errs[rank] = err
				return
			}
			if rank == 0 {
				in.rendezvousMs = msSince(t0)
			}
			in.eps[rank] = ep
			if in.built[rank], err = s.BuildWorker(ep); err != nil {
				errs[rank] = err
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			in.close()
			return fmt.Errorf("tcp rank %d: %w", rank, err)
		}
	}
	return nil
}

// close tears the trainers down. TCP ranks sync on a group barrier first,
// as cmd/dlrmworker does, so no rank's close-notify races a slower rank.
func (in *trainInst) close() {
	var wg sync.WaitGroup
	for rank, b := range in.built {
		if b == nil {
			if in.eps != nil && in.eps[rank] != nil {
				in.eps[rank].Close()
			}
			continue
		}
		wg.Add(1)
		go func(b *scenario.Built) {
			defer wg.Done()
			if in.w.tcp {
				b.Trainer.Cluster().Run(func(r *cluster.Rank) { _ = r.Barrier() })
			}
			b.Trainer.Close()
		}(b)
	}
	wg.Wait()
}

// steps runs Trainer.Step over the batches, starting no step after the
// deadline (0 = none), and logs each step's wall interval and loss; a
// failed step ends the phase. TCP ranks step in lock-step on their own
// goroutines, rank 0 keeps the log, and every rank must report rank 0's
// losses bit for bit.
func (in *trainInst) steps(batches []*criteo.Batch, deadline time.Duration, tr *tracer, idBase int) (*opLog, []float32, error) {
	log := newOpLog(len(batches))
	losses := make([][]float32, len(in.built))
	errs := make([]error, len(in.built))
	// Rank 0 alone decides where the phase ends, one step ahead: a peer
	// cannot finish step i before rank 0 has entered it, so it reads the
	// limit rank 0 set before step i when it asks about step i+1.
	var limit atomic.Int64
	limit.Store(int64(len(batches)))
	var wg sync.WaitGroup
	for rank, b := range in.built {
		losses[rank] = make([]float32, 0, len(batches))
		wg.Add(1)
		go func(rank int, t *dist.Trainer) {
			defer wg.Done()
			for i := 0; i < int(limit.Load()); i++ {
				if rank == 0 && deadline > 0 && time.Since(log.epoch) >= deadline {
					limit.Store(int64(i + 1))
				}
				t0 := time.Now()
				loss, err := t.Step(batches[i])
				t1 := time.Now()
				if err != nil {
					errs[rank] = fmt.Errorf("step %d: %w", i, err)
					return
				}
				if rank == 0 {
					log.record(i, t0, t1)
					tr.end(tr.begin("Trainer.Step", idBase+i, 0, t0), t1)
				}
				losses[rank] = append(losses[rank], loss)
			}
		}(rank, b.Trainer)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	for rank := 1; rank < len(losses); rank++ {
		if len(losses[rank]) != len(losses[0]) {
			return nil, nil, fmt.Errorf("rank %d ran %d steps, rank 0 %d", rank, len(losses[rank]), len(losses[0]))
		}
		for i, loss := range losses[rank] {
			if math.Float32bits(loss) != math.Float32bits(losses[0][i]) {
				return nil, nil, fmt.Errorf("rank %d reports loss %v at step %d, rank 0 %v", rank, loss, i, losses[0][i])
			}
		}
	}
	log.truncate(len(losses[0]))
	return log, losses[0], nil
}

// setup builds the trainers, warms them, and generates every batch of the
// run from the scenario's own Zipf stream.
func (w trainWorkload) setup(p *pass) (*trainInst, error) {
	in := &trainInst{w: w}
	t0 := time.Now()
	if err := in.build(w.spec(p.cfg.seed)); err != nil {
		return nil, err
	}
	in.buildMs = msSince(t0)
	// In-process, the trainer's generator (which an adaptive build has
	// already drawn its offline sample from) continues; TCP ranks are fed
	// one shared stream, as every dlrmworker replays an identical one.
	gen := in.built[0].Gen
	if w.tcp {
		gen = criteo.NewGenerator(in.rs.Data())
	}
	// Drawn before any training batch, so it is held out whatever the
	// number of steps.
	in.evalBatch = gen.NextBatch(evalSamples)
	draw := func(n int) []*criteo.Batch {
		t0 := time.Now()
		out := make([]*criteo.Batch, n)
		for i := range out {
			out[i] = gen.NextBatch(in.rs.Batch)
		}
		in.genMs = msSince(t0) / float64(n)
		return out
	}
	in.warmB = draw(p.ops(w.warm))
	var err error
	if _, in.warmLosses, err = in.steps(in.warmB, 0, nil, 0); err != nil {
		in.close()
		return nil, fmt.Errorf("warm: %w", err)
	}
	in.timedB = draw(p.pool(w.timed))
	return in, nil
}

func (w trainWorkload) run(p *pass) (*passResult, error) {
	in, setupS, err := medianSetup(p.setups, func() (*trainInst, error) { return w.setup(p) }, (*trainInst).close)
	if err != nil {
		return nil, err
	}
	defer in.close()
	r := newPassResult()
	r.warm = countPhase(len(in.warmB), 0)

	t := in.trainer()
	t.Cluster().ResetSimTime()
	var stats0 []tcptransport.PeerStats
	if w.tcp {
		stats0 = in.eps[0].(tcptransport.Instrumented).TransportStats()
	}
	iter0 := t.Iter()
	var log *opLog
	var losses []float32
	p.beginTimed()
	used := measured(func() { log, losses, err = in.steps(in.timedB, p.deadline(), p.tr, iter0) })
	if err != nil {
		return nil, fmt.Errorf("timed: %w", err)
	}
	p.endTimed(r, log, iter0)
	timed := log.n()
	in.timedB = in.timedB[:timed] // the batches that were stepped on
	r.timed = countPhase(timed, 0)
	r.timing(log, float64(in.rs.Batch))
	sim := t.Cluster().SimTimes()
	w.check(r, in, losses)

	r.e2e.set("setup_s", setupS)
	r.e2e.set("compression_ratio", t.CompressionRatio())
	r.e2e.set("sim_step_us", float64(profileutil.Breakdown(sim).Total())/1e3/float64(timed))
	r.e2e.set("alloc_kb_per_op", float64(used.bytes)/1e3/float64(timed))
	if w.eval {
		_, logloss := t.Evaluate(in.evalBatch)
		r.e2e.set("eval_logloss", logloss)
	}
	if !p.traced() {
		return r, nil
	}

	m := r.layer
	m.set("scenario.build_ms", in.buildMs)
	m.set("criteo.gen_ms_per_batch", in.genMs)
	m.set("dist.step_ms_p90", percentile(log.ms(), 0.90))
	m.set("dist.step_cpu_ms", used.cpuMs/float64(timed))
	m.set("dist.allocs_per_step", float64(used.mallocs)/float64(timed))
	m.set("dist.alloc_bytes_per_step", float64(used.bytes)/float64(timed))
	for label, d := range sim {
		name := "netmodel.sim." + label + "_us"
		if _, ok := unitOf[name]; !ok {
			return nil, fmt.Errorf("Cluster.SimTimes returned a bucket %q that simBuckets does not list", label)
		}
		m.set(name, float64(d)/1e3/float64(timed))
	}
	if w.tcp {
		m.set("tcptransport.rendezvous_ms", in.rendezvousMs)
		var d tcptransport.PeerStats
		for i, ps := range in.eps[0].(tcptransport.Instrumented).TransportStats() {
			d.SentBytes += ps.SentBytes - stats0[i].SentBytes
			d.RecvBytes += ps.RecvBytes - stats0[i].RecvBytes
			d.SentFrames += ps.SentFrames + ps.RecvFrames - stats0[i].SentFrames - stats0[i].RecvFrames
			d.SendMicros += ps.SendMicros - stats0[i].SendMicros
			d.RecvMicros += ps.RecvMicros - stats0[i].RecvMicros
		}
		m.set("tcptransport.sent_bytes_per_step", float64(d.SentBytes)/float64(timed))
		m.set("tcptransport.recv_bytes_per_step", float64(d.RecvBytes)/float64(timed))
		m.set("tcptransport.frames_per_step", float64(d.SentFrames)/float64(timed))
		m.set("tcptransport.send_ms_per_step", float64(d.SendMicros)/1e3/float64(timed))
		m.set("tcptransport.recv_ms_per_step", float64(d.RecvMicros)/1e3/float64(timed))
	}
	if err := w.probeLayers(p, r, in, iter0, used.cpuMs/float64(timed)); err != nil {
		return nil, err
	}
	return r, nil
}

// check applies the train workloads' correctness checks to the timed
// phase's losses.
func (w trainWorkload) check(r *passResult, in *trainInst, losses []float32) {
	for i, l := range losses {
		if !finite(float64(l)) {
			r.failf("loss %v at timed step %d is not finite", l, i)
			break
		}
	}
	mean := func(xs []float32) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	// The first window starts at the first warm step. How many steps a
	// -seconds run gets through depends on the host, so the comparison is
	// made only when lossGap steps lie between the windows: over 40 seeds the
	// smallest fall is then 0.02, five times the noise of a 20-step mean,
	// against 0.005 for windows that touch.
	all := append(append([]float32(nil), in.warmLosses...), losses...)
	if len(all) >= 2*lossWindow+lossGap {
		first, last := mean(all[:lossWindow]), mean(all[len(all)-lossWindow:])
		if !(last < first) {
			r.failf("mean loss of the last %d steps %.4f is not below that of the first %d, %.4f", lossWindow, last, lossWindow, first)
		}
	}
	if !w.tcp {
		return
	}
	// The sockets must not change the math: the leading steps of an
	// in-process run of the same spec on the same batches give the same bits.
	ref, err := w.spec(in.rs.Seed).Build()
	if err != nil {
		r.failf("in-process reference: %v", err)
		return
	}
	defer ref.Trainer.Close()
	batches := append(append([]*criteo.Batch(nil), in.warmB...), in.timedB...)
	for i := 0; i < min(tcpParity, len(batches)); i++ {
		loss, err := ref.Trainer.Step(batches[i])
		if err != nil {
			r.failf("in-process reference step %d: %v", i, err)
			return
		}
		if math.Float32bits(loss) != math.Float32bits(all[i]) {
			r.failf("step %d: loss %v over TCP, %v in process", i, all[i], loss)
			return
		}
	}
}

// checkpointProbe saves the trainer's state to memory and restores it,
// returning both times, the size, and the decoded weights.
func checkpointProbe(t *dist.Trainer, tr *tracer, traceID int) (saveMs, restoreMs float64, size int, data *dist.CheckpointData, err error) {
	var buf bytes.Buffer
	saveMs = tr.timed("Trainer.SaveCheckpoint", traceID, 0, func() {
		_, err = t.SaveCheckpoint(&buf, dist.CheckpointOptions{})
	})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	size = buf.Len()
	if data, err = dist.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		return 0, 0, 0, nil, err
	}
	restoreMs = tr.timed("Trainer.RestoreCheckpoint", traceID, 0, func() {
		err = t.RestoreCheckpoint(&buf)
	})
	return saveMs, restoreMs, size, data, err
}
