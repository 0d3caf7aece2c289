package cluster_test

// Transport conformance: the collectives must behave identically over the
// in-process channel fabric and the TCP backend — same delivered bytes,
// same bitwise allreduce results, same sim-time buckets — at every world
// size and topology, for ragged and zero-length payloads, and with nonblocking collectives in flight
// concurrently. CI runs this file under -race over both transports; see
// CONTRIBUTING.md for the invariant.

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/cluster/tcptransport"
	"dlrmcomp/internal/netmodel"
)

const (
	progRounds    = 3
	barrierRounds = 20
)

// progResult is everything a conformance program observes, per rank.
// Slots are written only by their own rank, so no locking is needed;
// arrivals is the one counter the run's ranks share.
type progResult struct {
	sync     [][]byte    // flattened deliveries of the synchronous a2as
	async    [][]byte    // flattened deliveries of the interleaved nonblocking a2as
	reduced  [][]float32 // allreduce outputs
	gathered [][]byte    // flattened GatherAll slots, or allreduce errors
	sims     map[string]time.Duration
	arrivals atomic.Int64 // barrier entries, across ranks
}

func newProgResult(world int) *progResult {
	return &progResult{
		sync:     make([][]byte, world),
		async:    make([][]byte, world),
		reduced:  make([][]float32, world),
		gathered: make([][]byte, world),
	}
}

// raggedPayload is deterministic in (from, to, round) with sizes that
// sweep zero-length, tiny, and page-crossing frames.
func raggedPayload(from, to, round int) []byte {
	sizes := []int{0, 1, 17, 1500, 0, 311}
	size := sizes[(from+3*to+5*round)%len(sizes)]
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(from*37 + to*11 + round*3 + i)
	}
	return b
}

func appendFlat(dst []byte, recv [][]byte) []byte {
	for _, buf := range recv {
		dst = append(dst, buf...)
	}
	return dst
}

// program is the collective workload every conformance run executes: per
// round a variable all-to-all, an interleaved
// nonblocking pair (two a2as and an allreduce awaited out of issue
// order), a barrier, and a GatherAll.
func program(r *cluster.Rank, res *progResult) error {
	n := r.N()
	for round := 0; round < progRounds; round++ {
		send := make([][]byte, n)
		for to := 0; to < n; to++ {
			send[to] = raggedPayload(r.ID, to, round)
		}
		recv, err := r.AllToAll(send, true, "fwd-a2a")
		if err != nil {
			return fmt.Errorf("rank %d round %d a2a: %w", r.ID, round, err)
		}
		res.sync[r.ID] = appendFlat(res.sync[r.ID], recv)

		x := make([]float32, 33)
		for i := range x {
			x[i] = float32(r.ID+1) * float32(i-7) * 0.125
		}
		opA := r.IAllToAllV(send, true, "bwd-a2a", cluster.A2AAuto)
		ar := r.IAllReduceSum(x, "allreduce")
		opB := r.IAllToAllV(send, false, "bwd-a2a", cluster.A2AAuto)
		recvB, err := opB.Await()
		if err != nil {
			return fmt.Errorf("rank %d round %d async B: %w", r.ID, round, err)
		}
		res.async[r.ID] = appendFlat(res.async[r.ID], recvB)
		if err := ar.Await(); err != nil {
			return fmt.Errorf("rank %d round %d allreduce: %w", r.ID, round, err)
		}
		res.reduced[r.ID] = append(res.reduced[r.ID], x...)
		recvA, err := opA.Await()
		if err != nil {
			return fmt.Errorf("rank %d round %d async A: %w", r.ID, round, err)
		}
		res.async[r.ID] = appendFlat(res.async[r.ID], recvA)

		if err := r.Barrier(); err != nil {
			return fmt.Errorf("rank %d round %d barrier: %w", r.ID, round, err)
		}

		into := make([][]byte, n)
		if err := r.GatherAll(send[(r.ID+1)%n], into); err != nil {
			return fmt.Errorf("rank %d round %d gather: %w", r.ID, round, err)
		}
		res.gathered[r.ID] = appendFlat(res.gathered[r.ID], into)
	}
	return nil
}

// barrierProgram checks the barrier's ordering. Each round every rank
// counts its entry, passes a barrier, reads the count and passes a second
// barrier. No rank may leave the first barrier before every rank entered
// it, and none may enter the next round before every rank has read the
// count, so each read sees exactly world entries per round.
func barrierProgram(r *cluster.Rank, res *progResult) error {
	n := int64(r.N())
	for round := int64(1); round <= barrierRounds; round++ {
		res.arrivals.Add(1)
		if err := r.Barrier(); err != nil {
			return fmt.Errorf("rank %d round %d barrier: %w", r.ID, round, err)
		}
		if got := res.arrivals.Load(); got != n*round {
			return fmt.Errorf("rank %d left round %d's barrier with %d entries, want %d", r.ID, round, got, n*round)
		}
		if err := r.Barrier(); err != nil {
			return fmt.Errorf("rank %d round %d second barrier: %w", r.ID, round, err)
		}
	}
	return nil
}

// mismatchProgram has each rank in turn pass the allreduce one extra
// element. Every rank must get an error back, not a result and not a
// hang, and the same error on both fabrics; a matched allreduce after
// each shows the fabric stays aligned.
func mismatchProgram(r *cluster.Rank, res *progResult) error {
	for odd := 0; odd < r.N(); odd++ {
		x := make([]float32, 9)
		if r.ID == odd {
			x = append(x, 1)
		}
		err := r.AllReduceSum(x, "allreduce")
		if err == nil {
			return fmt.Errorf("rank %d: rank %d's extra element went unnoticed", r.ID, odd)
		}
		res.gathered[r.ID] = append(res.gathered[r.ID], err.Error()...)
		x = x[:9]
		for i := range x {
			x[i] = float32(r.ID + i)
		}
		if err := r.AllReduceSum(x, "allreduce"); err != nil {
			return fmt.Errorf("rank %d: allreduce after rank %d's mismatch: %w", r.ID, odd, err)
		}
		res.reduced[r.ID] = append(res.reduced[r.ID], x...)
	}
	return nil
}

func runInproc(t *testing.T, world int, topo netmodel.Topology, prog func(*cluster.Rank, *progResult) error) *progResult {
	t.Helper()
	cl := cluster.New(world, topo)
	defer cl.Close()
	res := newProgResult(world)
	var mu sync.Mutex
	var firstErr error
	cl.Run(func(r *cluster.Rank) {
		if err := prog(r, res); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			cl.Close() // unblock the ranks still waiting on this one
		}
	})
	if firstErr != nil {
		t.Fatalf("in-proc program: %v", firstErr)
	}
	res.sims = cl.SimTimes()
	return res
}

// reserveAddr binds rank 0's rendezvous port on loopback; the listener
// goes to rank 0 as Options.Listener, so the port is never released
// for another socket to take before the rendezvous.
func reserveAddr(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	return ln, ln.Addr().String()
}

func runTCP(t *testing.T, world int, topo netmodel.Topology, prog func(*cluster.Rank, *progResult) error) *progResult {
	t.Helper()
	ln, addr := reserveAddr(t)
	res := newProgResult(world)
	errs := make([]error, world)
	sims := make([]map[string]time.Duration, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep, err := tcptransport.Dial(tcptransport.Options{
				Rank:        rank,
				World:       world,
				Addr:        addr,
				Listener:    ln, // used by rank 0 only
				DialTimeout: 10 * time.Second,
			})
			if err != nil {
				errs[rank] = fmt.Errorf("dial: %w", err)
				return
			}
			cl, err := cluster.NewOverTransport(ep, topo)
			if err != nil {
				errs[rank] = err
				ep.Close()
				return
			}
			defer cl.Close()
			cl.Run(func(r *cluster.Rank) {
				errs[rank] = prog(r, res)
			})
			sims[rank] = cl.SimTimes()
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", rank, err)
		}
	}
	res.sims = sims[0] // collectives charge sim time at rank 0
	return res
}

func sameSims(a, b map[string]time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func compareResults(t *testing.T, want, got *progResult, label string) {
	t.Helper()
	for r := range want.sync {
		if !bytes.Equal(want.sync[r], got.sync[r]) {
			t.Errorf("%s: rank %d a2a deliveries differ", label, r)
		}
		if !bytes.Equal(want.async[r], got.async[r]) {
			t.Errorf("%s: rank %d nonblocking deliveries differ", label, r)
		}
		if len(want.reduced[r]) != len(got.reduced[r]) {
			t.Errorf("%s: rank %d allreduce length differs", label, r)
			continue
		}
		for i := range want.reduced[r] {
			if math.Float32bits(want.reduced[r][i]) != math.Float32bits(got.reduced[r][i]) {
				t.Errorf("%s: rank %d allreduce[%d] = %x, want %x (not bit-identical)",
					label, r, i, math.Float32bits(got.reduced[r][i]), math.Float32bits(want.reduced[r][i]))
				break
			}
		}
		if !bytes.Equal(want.gathered[r], got.gathered[r]) {
			t.Errorf("%s: rank %d GatherAll slots or allreduce errors differ", label, r)
		}
	}
	if !sameSims(want.sims, got.sims) {
		t.Errorf("%s: sim-time buckets differ:\n in-proc: %v\n     tcp: %v", label, want.sims, got.sims)
	}
}

// TestTransportConformance holds the two fabrics to identical observable
// behavior across world sizes and topologies, to the barrier's ordering,
// and to an error on every rank when allreduce lengths disagree.
func TestTransportConformance(t *testing.T) {
	flat := netmodel.Network{AllToAllBandwidth: 4e9, AllReduceBandwidth: 8e9, Latency: time.Microsecond}
	cases := []struct {
		name  string
		world int
		topo  netmodel.Topology
		prog  func(*cluster.Rank, *progResult) error
	}{
		{"2ranks_flat", 2, flat, program},
		{"2ranks_hier", 2, netmodel.PaperHierarchical(2), program},
		{"4ranks_hier", 4, netmodel.PaperHierarchical(2), program},
		{"8ranks_hier", 8, netmodel.PaperHierarchical(2), program},
		{"8ranks_hier4", 8, netmodel.PaperHierarchical(4), program},
		{"4ranks_barrier_order", 4, flat, barrierProgram},
		{"2ranks_allreduce_mismatch", 2, flat, mismatchProgram},
		{"3ranks_allreduce_mismatch", 3, flat, mismatchProgram},
		{"4ranks_allreduce_mismatch", 4, netmodel.PaperHierarchical(2), mismatchProgram},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runInproc(t, tc.world, tc.topo, tc.prog)
			got := runTCP(t, tc.world, tc.topo, tc.prog)
			compareResults(t, want, got, tc.name)
		})
	}
}

// TestTCPMidCollectiveCloseErrors: over the real transport, a rank
// closing its endpoint mid-collective must error the survivors' calls
// promptly — never deadlock them.
func TestTCPMidCollectiveCloseErrors(t *testing.T) {
	const world = 3
	ln, addr := reserveAddr(t)
	topo := netmodel.PaperHierarchical(2)
	eps := make([]cluster.Transport, world)
	var dialWG sync.WaitGroup
	dialErrs := make([]error, world)
	for rank := 0; rank < world; rank++ {
		dialWG.Add(1)
		go func(rank int) {
			defer dialWG.Done()
			eps[rank], dialErrs[rank] = tcptransport.Dial(tcptransport.Options{
				Rank: rank, World: world, Addr: addr, Listener: ln,
				DialTimeout: 10 * time.Second,
			})
		}(rank)
	}
	dialWG.Wait()
	for rank, err := range dialErrs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", rank, err)
		}
	}
	survivors := make(chan error, world-1)
	for rank := 1; rank < world; rank++ {
		go func(rank int) {
			cl, err := cluster.NewOverTransport(eps[rank], topo)
			if err != nil {
				survivors <- err
				return
			}
			defer cl.Close()
			cl.Run(func(r *cluster.Rank) {
				send := make([][]byte, world)
				for to := range send {
					send[to] = raggedPayload(r.ID, to, 0)
				}
				_, err := r.AllToAll(send, true, "fwd-a2a")
				survivors <- err
			})
		}(rank)
	}
	// A survivor's size row is the first message of its all-to-all: once
	// rank 0 holds every survivor's, each of them is inside the collective.
	for from := 1; from < world; from++ {
		if _, err := eps[0].Recv(from); err != nil {
			t.Fatalf("rank 0 recv of rank %d's size row: %v", from, err)
		}
	}
	if err := eps[0].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i := 0; i < world-1; i++ {
		select {
		case err := <-survivors:
			if err == nil {
				t.Fatal("survivor's collective returned nil after peer close")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("survivor still blocked after peer close")
		}
	}
}
