package dist

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/cluster/tcptransport"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/netmodel"
)

// Trainer-level transport conformance: the same Spec-configured training
// run — same model, same deterministic batch stream — must produce
// bit-identical per-step losses and rank-0 sim-time buckets whether the
// ranks are goroutines over the in-process fabric or endpoints over the
// TCP transport, at every world size and with either all-to-all
// algorithm. CI pins this as the transport-conformance invariant.

const transportParitySteps = 5

type trainRun struct {
	losses []float32
	sims   map[string]time.Duration
}

// reserveLoopbackAddr binds rank 0's rendezvous port on loopback; the
// listener goes to rank 0 as Options.Listener, so the port is never
// released for another socket to take before the rendezvous.
func reserveLoopbackAddr(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	return ln, ln.Addr().String()
}

// trainSteps drives transportParitySteps lockstep steps from a fresh
// generator of spec. Every process of a distributed run calls this with
// an identically-configured trainer and its own (identical) generator.
func trainSteps(tr *Trainer, spec criteo.Spec) ([]float32, error) {
	gen := criteo.NewGenerator(spec)
	losses := make([]float32, 0, transportParitySteps)
	for i := 0; i < transportParitySteps; i++ {
		loss, err := tr.Step(gen.NextBatch(32))
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
		losses = append(losses, loss)
	}
	return losses, nil
}

func runTrainInproc(t *testing.T, opts Options, spec criteo.Spec) trainRun {
	t.Helper()
	tr, err := NewTrainer(opts)
	if err != nil {
		t.Fatalf("in-proc trainer: %v", err)
	}
	defer tr.Close()
	losses, err := trainSteps(tr, spec)
	if err != nil {
		t.Fatalf("in-proc run: %v", err)
	}
	return trainRun{losses: losses, sims: tr.Cluster().SimTimes()}
}

// runTrainTCP runs opts.Ranks full trainers, each over its own TCP
// endpoint — the same shape as one trainer per OS process, compressed
// into one test binary. Every rank's loss sequence must already agree
// (each process aggregates the global loss from the gathered stats); the
// returned run carries rank 0's view.
func runTrainTCP(t *testing.T, opts Options, spec criteo.Spec) trainRun {
	t.Helper()
	ln, addr := reserveLoopbackAddr(t)
	world := opts.Ranks
	runs := make([]trainRun, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep, err := tcptransport.Dial(tcptransport.Options{
				Rank:             rank,
				World:            world,
				Addr:             addr,
				Listener:         ln, // used by rank 0 only
				DialTimeout:      10 * time.Second,
				HandshakeTimeout: 10 * time.Second,
			})
			if err != nil {
				errs[rank] = fmt.Errorf("dial: %w", err)
				return
			}
			o := opts
			o.Transport = ep
			tr, err := NewTrainer(o)
			if err != nil {
				errs[rank] = err
				ep.Close()
				return
			}
			defer tr.Close()
			losses, err := trainSteps(tr, spec)
			if err != nil {
				errs[rank] = err
				return
			}
			runs[rank] = trainRun{losses: losses, sims: tr.Cluster().SimTimes()}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", rank, err)
		}
	}
	for rank := 1; rank < world; rank++ {
		for i, loss := range runs[rank].losses {
			if math.Float32bits(loss) != math.Float32bits(runs[0].losses[i]) {
				t.Fatalf("tcp rank %d step %d loss %v differs from rank 0's %v — processes disagree on the global loss",
					rank, i, loss, runs[0].losses[i])
			}
		}
	}
	return runs[0]
}

func compareRuns(t *testing.T, want, got trainRun, label string) {
	t.Helper()
	if len(want.losses) != len(got.losses) {
		t.Fatalf("%s: step count %d != %d", label, len(got.losses), len(want.losses))
	}
	for i := range want.losses {
		if math.Float32bits(want.losses[i]) != math.Float32bits(got.losses[i]) {
			t.Errorf("%s: step %d loss %v (tcp) != %v (in-proc) — not bit-identical",
				label, i, got.losses[i], want.losses[i])
		}
	}
	if len(want.sims) != len(got.sims) {
		t.Errorf("%s: sim bucket sets differ:\n in-proc: %v\n     tcp: %v", label, want.sims, got.sims)
		return
	}
	for k, v := range want.sims {
		if got.sims[k] != v {
			t.Errorf("%s: sim bucket %q = %v (tcp) != %v (in-proc)", label, k, got.sims[k], v)
		}
	}
}

// TestTrainerTransportConformance is the headline matrix: 1/2/4/8 ranks,
// direct over the flat topology and two-phase over the hierarchical one,
// uncompressed and compressed.
func TestTrainerTransportConformance(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	cases := []struct {
		name       string
		ranks      int
		topo       netmodel.Topology
		algo       cluster.A2AAlgo
		compressed bool
	}{
		{"1rank_direct", 1, nil, cluster.A2ADirect, false},
		{"2ranks_direct", 2, nil, cluster.A2ADirect, false},
		{"4ranks_direct", 4, nil, cluster.A2ADirect, false},
		{"4ranks_twophase_hier", 4, netmodel.PaperHierarchical(2), cluster.A2ATwoPhase, false},
		{"4ranks_twophase_hier_compressed", 4, netmodel.PaperHierarchical(2), cluster.A2ATwoPhase, true},
		{"8ranks_twophase_hier", 8, netmodel.PaperHierarchical(2), cluster.A2ATwoPhase, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Ranks: tc.ranks, Model: cfg, Net: tc.topo, Algo: tc.algo}
			if tc.compressed {
				opts.CodecFor = func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) }
			}
			want := runTrainInproc(t, opts, spec)
			got := runTrainTCP(t, opts, spec)
			compareRuns(t, want, got, tc.name)
		})
	}
}

// TestTrainerTransportFaultConformance extends the matrix with an armed
// fault plan: jitter plus a 10x straggler must leave the losses AND
// rank 0's sim-time buckets bit-identical across transports, because the
// cost scaling and the jitter sequence both live on rank 0's cost path.
// Every worker process of a wire-transport run passes the same plan.
func TestTrainerTransportFaultConformance(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	faults := &cluster.FaultPlan{
		Seed:   42,
		Jitter: 0.3,
		Slow:   []cluster.SlowRank{{Rank: 1, Factor: 10}},
	}
	for _, tc := range []struct {
		name  string
		ranks int
		topo  netmodel.Topology
		algo  cluster.A2AAlgo
	}{
		{"2ranks_direct_faults", 2, nil, cluster.A2ADirect},
		{"4ranks_twophase_hier_faults", 4, netmodel.PaperHierarchical(2), cluster.A2ATwoPhase},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Ranks: tc.ranks, Model: cfg, Net: tc.topo, Algo: tc.algo, Faults: faults}
			want := runTrainInproc(t, opts, spec)
			got := runTrainTCP(t, opts, spec)
			compareRuns(t, want, got, tc.name)

			// The plan must actually have bitten: the same run without it
			// charges strictly less simulated time and the same losses.
			healthy := runTrainInproc(t, Options{Ranks: tc.ranks, Model: cfg, Net: tc.topo, Algo: tc.algo}, spec)
			for i := range healthy.losses {
				if math.Float32bits(healthy.losses[i]) != math.Float32bits(want.losses[i]) {
					t.Fatalf("step %d: faults changed the loss (%v healthy, %v faulted)", i, healthy.losses[i], want.losses[i])
				}
			}
			var healthyTotal, faultedTotal time.Duration
			for _, v := range healthy.sims {
				healthyTotal += v
			}
			for _, v := range want.sims {
				faultedTotal += v
			}
			if faultedTotal <= healthyTotal {
				t.Fatalf("fault plan charged no extra sim-time: healthy %v, faulted %v", healthyTotal, faultedTotal)
			}
		})
	}
}

// TestTrainerTransportWorldMismatch: a transport whose world disagrees
// with Ranks is a construction error, not a hang.
func TestTrainerTransportWorldMismatch(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	ep, err := tcptransport.Dial(tcptransport.Options{Rank: 0, World: 1, Addr: "127.0.0.1:1"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ep.Close()
	if _, err := NewTrainer(Options{Ranks: 2, Model: cfg, Transport: ep}); err == nil {
		t.Fatal("NewTrainer accepted a transport with world 1 for 2 ranks")
	}
}

// TestTrainerDistributedRejectsPipelined: the overlap driver needs every
// rank's costs in one process; over a distributed transport it must
// refuse rather than deadlock.
func TestTrainerDistributedRejectsPipelined(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	ln, addr := reserveLoopbackAddr(t)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep, err := tcptransport.Dial(tcptransport.Options{
				Rank: rank, World: 2, Addr: addr, Listener: ln,
				DialTimeout: 10 * time.Second, HandshakeTimeout: 10 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			tr, err := NewTrainer(Options{Ranks: 2, Model: cfg, Transport: ep})
			if err != nil {
				errs[rank] = err
				ep.Close()
				return
			}
			defer tr.Close()
			gen := criteo.NewGenerator(spec)
			if _, err := tr.RunPipelined(2, func(int) *criteo.Batch { return gen.NextBatch(32) }); err == nil {
				errs[rank] = fmt.Errorf("RunPipelined ran over a distributed transport")
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}
