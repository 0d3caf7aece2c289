package cluster_test

// Transport conformance: the collectives must behave identically over the
// in-process channel fabric and the TCP backend — same delivered bytes,
// same bitwise allreduce results, same sim-time buckets — at every world
// size, for the direct and two-phase all-to-alls, for ragged and
// zero-length payloads, and with nonblocking collectives in flight
// concurrently. CI runs this file under -race over both transports; see
// CONTRIBUTING.md for the invariant.

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/cluster/tcptransport"
	"dlrmcomp/internal/netmodel"
)

const progRounds = 3

// progResult is everything a conformance program observes, per rank.
// Slots are written only by their own rank, so no locking is needed.
type progResult struct {
	direct   [][]byte    // flattened direct-a2a deliveries
	twoPhase [][]byte    // flattened two-phase deliveries
	async    [][]byte    // flattened deliveries of the interleaved nonblocking a2as
	reduced  [][]float32 // allreduce outputs
	flags    []bool      // OrFlag verdicts
	gathered [][]byte    // flattened GatherAll bundles
	sims     map[string]time.Duration
}

func newProgResult(world int) *progResult {
	return &progResult{
		direct:   make([][]byte, world),
		twoPhase: make([][]byte, world),
		async:    make([][]byte, world),
		reduced:  make([][]float32, world),
		flags:    make([]bool, world),
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
// round a direct and a two-phase variable all-to-all, an interleaved
// nonblocking pair (two a2as and an allreduce awaited out of issue
// order), an OrFlag, and a GatherAll.
func program(r *cluster.Rank, res *progResult) error {
	n := r.N()
	for round := 0; round < progRounds; round++ {
		send := make([][]byte, n)
		for to := 0; to < n; to++ {
			send[to] = raggedPayload(r.ID, to, round)
		}
		recv, err := r.AllToAllV(send, true, "fwd-a2a", cluster.A2ADirect)
		if err != nil {
			return fmt.Errorf("rank %d round %d direct: %w", r.ID, round, err)
		}
		res.direct[r.ID] = appendFlat(res.direct[r.ID], recv)

		recv, err = r.AllToAllV(send, true, "fwd-a2a", cluster.A2ATwoPhase)
		if err != nil {
			return fmt.Errorf("rank %d round %d two-phase: %w", r.ID, round, err)
		}
		res.twoPhase[r.ID] = appendFlat(res.twoPhase[r.ID], recv)

		x := make([]float32, 33)
		for i := range x {
			x[i] = float32(r.ID+1) * float32(i-7) * 0.125
		}
		opA := r.IAllToAllV(send, true, "bwd-a2a", cluster.A2ADirect)
		ar := r.IAllReduceSum(x, "allreduce")
		opB := r.IAllToAllV(send, false, "bwd-a2a", cluster.A2ATwoPhase)
		recvB, err := opB.Await()
		if err != nil {
			return fmt.Errorf("rank %d round %d async two-phase: %w", r.ID, round, err)
		}
		res.async[r.ID] = appendFlat(res.async[r.ID], recvB)
		if err := ar.Await(); err != nil {
			return fmt.Errorf("rank %d round %d allreduce: %w", r.ID, round, err)
		}
		res.reduced[r.ID] = append(res.reduced[r.ID], x...)
		recvA, err := opA.Await()
		if err != nil {
			return fmt.Errorf("rank %d round %d async direct: %w", r.ID, round, err)
		}
		res.async[r.ID] = appendFlat(res.async[r.ID], recvA)

		flag, err := r.OrFlag(r.ID == round%n)
		if err != nil {
			return fmt.Errorf("rank %d round %d orflag: %w", r.ID, round, err)
		}
		res.flags[r.ID] = flag

		into := make([][]byte, n)
		if err := r.GatherAll(send[(r.ID+1)%n], into); err != nil {
			return fmt.Errorf("rank %d round %d gather: %w", r.ID, round, err)
		}
		res.gathered[r.ID] = appendFlat(res.gathered[r.ID], into)
	}
	return nil
}

func runInproc(t *testing.T, world int, topo netmodel.Topology) *progResult {
	t.Helper()
	cl := cluster.New(world, topo)
	defer cl.Close()
	res := newProgResult(world)
	var mu sync.Mutex
	var firstErr error
	cl.Run(func(r *cluster.Rank) {
		if err := program(r, res); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
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

func runTCP(t *testing.T, world int, topo netmodel.Topology) *progResult {
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
			cl, err := cluster.NewOverTransport(ep, topo)
			if err != nil {
				errs[rank] = err
				ep.Close()
				return
			}
			defer cl.Close()
			cl.Run(func(r *cluster.Rank) {
				errs[rank] = program(r, res)
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
	for r := range want.direct {
		if !bytes.Equal(want.direct[r], got.direct[r]) {
			t.Errorf("%s: rank %d direct a2a deliveries differ", label, r)
		}
		if !bytes.Equal(want.twoPhase[r], got.twoPhase[r]) {
			t.Errorf("%s: rank %d two-phase deliveries differ", label, r)
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
		if want.flags[r] != got.flags[r] {
			t.Errorf("%s: rank %d OrFlag differs", label, r)
		}
		if !bytes.Equal(want.gathered[r], got.gathered[r]) {
			t.Errorf("%s: rank %d GatherAll bundles differ", label, r)
		}
	}
	if !sameSims(want.sims, got.sims) {
		t.Errorf("%s: sim-time buckets differ:\n in-proc: %v\n     tcp: %v", label, want.sims, got.sims)
	}
}

// TestTransportConformance holds the two fabrics to identical observable
// behavior across world sizes and topologies.
func TestTransportConformance(t *testing.T) {
	flat := netmodel.Network{AllToAllBandwidth: 4e9, AllReduceBandwidth: 8e9, Latency: time.Microsecond}
	cases := []struct {
		name  string
		world int
		topo  netmodel.Topology
	}{
		{"2ranks_flat", 2, flat},
		{"2ranks_hier", 2, netmodel.PaperHierarchical(2)},
		{"4ranks_hier", 4, netmodel.PaperHierarchical(2)},
		{"8ranks_hier", 8, netmodel.PaperHierarchical(2)},
		{"8ranks_hier4", 8, netmodel.PaperHierarchical(4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runInproc(t, tc.world, tc.topo)
			got := runTCP(t, tc.world, tc.topo)
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
				DialTimeout: 10 * time.Second, HandshakeTimeout: 10 * time.Second,
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
				_, err := r.AllToAllV(send, true, "fwd-a2a", cluster.A2ADirect)
				survivors <- err
			})
		}(rank)
	}
	time.Sleep(100 * time.Millisecond) // let the survivors block on rank 0
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
