package tcptransport

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlrmcomp/internal/cluster"
)

// rendezvousListener binds rank 0's rendezvous port on loopback. It is
// handed to rank 0 as Options.Listener, never released and re-bound, so
// no other socket can take the port in between.
func rendezvousListener(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	return ln, ln.Addr().String()
}

// dialGroup brings up a world-rank group on loopback, all endpoints in
// this process. mod, when non-nil, tweaks each rank's Options.
func dialGroup(t *testing.T, world int, mod func(rank int, o *Options)) []cluster.Transport {
	t.Helper()
	ln, addr := rendezvousListener(t)
	eps := make([]cluster.Transport, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := Options{
				Rank:             r,
				World:            world,
				Addr:             addr,
				DialTimeout:      5 * time.Second,
				HandshakeTimeout: 5 * time.Second,
				CloseTimeout:     time.Second,
			}
			if r == 0 {
				o.Listener = ln
			}
			if mod != nil {
				mod(r, &o)
			}
			eps[r], errs[r] = Dial(o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, e := range eps {
			if e != nil {
				e.Close()
			}
		}
	})
	return eps
}

// payload builds a deterministic ragged test payload.
func payload(from, to, seq, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(from*31 + to*17 + seq*7 + i)
	}
	return b
}

// TestPairwiseFIFOAndRagged drives every directed pair — self-sends
// included — with a ragged size schedule (zero-length frames among them)
// and checks content and per-pair FIFO order on the far side.
func TestPairwiseFIFOAndRagged(t *testing.T) {
	const world = 3
	sizes := []int{0, 1, 7, 4096, 0, 65, 1000}
	eps := dialGroup(t, world, nil)
	var wg sync.WaitGroup
	errc := make(chan error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e := eps[r]
			for seq, size := range sizes {
				for to := 0; to < world; to++ {
					if err := e.Send(to, payload(r, to, seq, size)); err != nil {
						errc <- fmt.Errorf("rank %d send seq %d to %d: %w", r, seq, to, err)
						return
					}
				}
			}
			for seq, size := range sizes {
				for from := 0; from < world; from++ {
					got, err := e.Recv(from)
					if err != nil {
						errc <- fmt.Errorf("rank %d recv seq %d from %d: %w", r, seq, from, err)
						return
					}
					if want := payload(from, r, seq, size); !bytes.Equal(got, want) {
						errc <- fmt.Errorf("rank %d seq %d from %d: got %d bytes, want %d (FIFO or content violated)", r, seq, from, len(got), len(want))
						return
					}
				}
			}
			if err := e.Barrier(); err != nil {
				errc <- fmt.Errorf("rank %d barrier: %w", r, err)
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// The receive order above is send order per pair but the outer loops
// interleave destinations, so the inboxes also prove sends to different
// destinations don't block each other: every rank posts all its frames
// before reading any.

func TestBarrierSynchronizes(t *testing.T) {
	const world, rounds = 4, 20
	eps := dialGroup(t, world, nil)
	var counter atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 1; round <= rounds; round++ {
				counter.Add(1)
				if err := eps[r].Barrier(); err != nil {
					errc <- err
					return
				}
				if got := counter.Load(); got < int64(world*round) {
					errc <- fmt.Errorf("rank %d escaped barrier round %d with counter %d", r, round, got)
					return
				}
				if err := eps[r].Barrier(); err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestOversizedSendRejected: the sender-side cap fails the Send without
// killing the endpoint, so a capped rank keeps working under the limit.
func TestOversizedSendRejected(t *testing.T) {
	eps := dialGroup(t, 2, func(rank int, o *Options) {
		if rank == 0 {
			o.MaxFrameBytes = 64
		}
	})
	if err := eps[0].Send(1, make([]byte, 100)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized send: got %v, want frame-limit error", err)
	}
	done := make(chan error, 1)
	go func() {
		got, err := eps[1].Recv(0)
		if err == nil && len(got) != 10 {
			err = fmt.Errorf("got %d bytes, want 10", len(got))
		}
		done <- err
	}()
	if err := eps[0].Send(1, make([]byte, 10)); err != nil {
		t.Fatalf("in-limit send after rejected send: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("recv after rejected send: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv did not complete")
	}
}

// TestOversizedRecvPoisons: a frame above the receiver's cap poisons the
// receiver, and the teardown cascades to the sender instead of leaving
// it blocked.
func TestOversizedRecvPoisons(t *testing.T) {
	eps := dialGroup(t, 2, func(rank int, o *Options) {
		if rank == 0 {
			o.MaxFrameBytes = 64
		}
	})
	if err := eps[1].Send(0, make([]byte, 1000)); err != nil {
		t.Fatalf("send: %v", err) // within rank 1's own cap; the receiver enforces its limit
	}
	recvErr := make(chan error, 1)
	go func() {
		_, err := eps[0].Recv(1)
		recvErr <- err
	}()
	select {
	case err := <-recvErr:
		if err == nil || !strings.Contains(err.Error(), "limit") {
			t.Fatalf("receiver: got %v, want frame-limit error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver did not error")
	}
	peerErr := make(chan error, 1)
	go func() {
		_, err := eps[1].Recv(0)
		peerErr <- err
	}()
	select {
	case err := <-peerErr:
		if err == nil {
			t.Fatal("sender side kept working after peer poisoned")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("failure did not cascade to the sender")
	}
}

// TestMidCollectiveCloseErrors: a rank closing while its peers sit in
// blocking Recv and Barrier must error both out promptly — never
// deadlock them.
func TestMidCollectiveCloseErrors(t *testing.T) {
	eps := dialGroup(t, 3, nil)
	blocked := make(chan error, 2)
	go func() {
		_, err := eps[1].Recv(0)
		blocked <- err
	}()
	go func() {
		blocked <- eps[2].Barrier()
	}()
	time.Sleep(50 * time.Millisecond) // let both calls block
	if err := eps[0].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-blocked:
			if err == nil {
				t.Fatal("blocked collective returned nil after peer close")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("blocked collective did not return after peer close")
		}
	}
}

// TestGracefulCloseDrains: frames delivered before the peer's close stay
// readable; the error surfaces only once the queue is dry.
func TestGracefulCloseDrains(t *testing.T) {
	eps := dialGroup(t, 2, nil)
	for seq := 0; seq < 3; seq++ {
		if err := eps[0].Send(1, payload(0, 1, seq, 32)); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	if err := eps[0].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	deadline := time.After(5 * time.Second)
	results := make(chan error, 1)
	go func() {
		for seq := 0; seq < 3; seq++ {
			got, err := eps[1].Recv(0)
			if err != nil {
				results <- fmt.Errorf("recv %d after close: %w", seq, err)
				return
			}
			if !bytes.Equal(got, payload(0, 1, seq, 32)) {
				results <- fmt.Errorf("recv %d: wrong payload", seq)
				return
			}
		}
		if _, err := eps[1].Recv(0); err == nil {
			results <- fmt.Errorf("recv past the drained queue returned nil error")
			return
		}
		results <- nil
	}()
	select {
	case err := <-results:
		if err != nil {
			t.Fatal(err)
		}
	case <-deadline:
		t.Fatal("drain did not complete")
	}
}

// TestPeerCloseLeavesGroupRunning: the first rank to finish and Close
// must not tear down the ranks still running. Once ranks 0 and 1 have
// seen rank 2's notify, they still exchange frames; rank 2's last frame
// drains, and only a Recv past it fails, naming the departure.
func TestPeerCloseLeavesGroupRunning(t *testing.T) {
	eps := dialGroup(t, 3, nil)
	for to := 0; to < 2; to++ {
		if err := eps[2].Send(to, payload(2, to, 0, 16)); err != nil {
			t.Fatalf("rank 2 send to %d: %v", to, err)
		}
	}
	if err := eps[2].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for r := 0; r < 2; r++ {
		select {
		case <-eps[r].(*endpoint).gone[2]:
		case <-time.After(5 * time.Second):
			t.Fatalf("rank %d never saw rank 2's close notify", r)
		}
	}
	for r := 0; r < 2; r++ {
		if err := eps[r].Send(1-r, payload(r, 1-r, 1, 64)); err != nil {
			t.Fatalf("rank %d send after rank 2 left: %v", r, err)
		}
	}
	for r := 0; r < 2; r++ {
		got, err := eps[r].Recv(1 - r)
		if err != nil || !bytes.Equal(got, payload(1-r, r, 1, 64)) {
			t.Fatalf("rank %d recv after rank 2 left: %d bytes, %v", r, len(got), err)
		}
		got, err = eps[r].Recv(2)
		if err != nil || !bytes.Equal(got, payload(2, r, 0, 16)) {
			t.Fatalf("rank %d drain of rank 2's last frame: %d bytes, %v", r, len(got), err)
		}
		if _, err := eps[r].Recv(2); err == nil || !strings.Contains(err.Error(), "rank 2 left the group") {
			t.Fatalf("rank %d recv past rank 2's drained inbox: got %v, want departure error", r, err)
		}
	}
}

// pipeEndpoint builds a bare endpoint over one side of a net.Pipe so
// read-path edge cases can be driven byte by byte.
func pipeEndpoint(t *testing.T) (*endpoint, net.Conn) {
	t.Helper()
	local, remote := net.Pipe()
	conns := make([]net.Conn, 2)
	conns[1] = local
	o := Options{Rank: 0, World: 2}.withDefaults()
	e := newEndpoint(o, conns)
	t.Cleanup(func() { e.Close(); remote.Close() })
	return e, remote
}

// TestShortReadHeaderPoisons: a connection dying mid-header surfaces as
// an error from Recv, via the io.ReadFull path.
func TestShortReadHeaderPoisons(t *testing.T) {
	e, remote := pipeEndpoint(t)
	go func() {
		remote.Write([]byte{kData, 9}) // 2 of 5 header bytes
		remote.Close()
	}()
	if _, err := e.Recv(1); err == nil || !strings.Contains(err.Error(), "lost the connection") {
		t.Fatalf("got %v, want connection-loss error", err)
	}
}

// TestShortReadPayloadPoisons: a frame whose payload is cut short is a
// truncation error, not a hang and not a short delivery.
func TestShortReadPayloadPoisons(t *testing.T) {
	e, remote := pipeEndpoint(t)
	go func() {
		remote.Write([]byte{kData, 10, 0, 0, 0}) // header: 10-byte payload
		remote.Write([]byte{1, 2, 3})            // only 3 arrive
		remote.Close()
	}()
	if _, err := e.Recv(1); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("got %v, want truncation error", err)
	}
}

// TestUnknownFrameKindPoisons: protocol garbage after the handshake kills
// the endpoint with a descriptive error.
func TestUnknownFrameKindPoisons(t *testing.T) {
	e, remote := pipeEndpoint(t)
	go func() {
		remote.Write([]byte{0xFF, 0, 0, 0, 0})
	}()
	if _, err := e.Recv(1); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
		t.Fatalf("got %v, want unknown-kind error", err)
	}
}

// TestStaleRendezvousDialerRejected: a dialer speaking an old or foreign
// protocol (wrong magic — e.g. a worker from a previous run restarted
// against a reused port) is dropped without disturbing the rendezvous.
func TestStaleRendezvousDialerRejected(t *testing.T) {
	ln, addr := rendezvousListener(t)
	opts := func(rank int) Options {
		return Options{Rank: rank, World: 2, Addr: addr, DialTimeout: 5 * time.Second, HandshakeTimeout: 5 * time.Second}
	}
	lead := make(chan struct{})
	var ep0 cluster.Transport
	var err0 error
	go func() {
		o := opts(0)
		o.Listener = ln
		ep0, err0 = Dial(o)
		close(lead)
	}()
	// A stale/garbage dialer gets in first: the port is already bound, so
	// it lands in the accept queue ahead of the real worker.
	stale, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("stale dial: %v", err)
	}
	stale.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	defer stale.Close()
	// The real worker still completes the handshake.
	ep1, err := Dial(opts(1))
	if err != nil {
		t.Fatalf("rank 1 dial after stale peer: %v", err)
	}
	<-lead
	if err0 != nil {
		t.Fatalf("rank 0 dial: %v", err0)
	}
	defer ep0.Close()
	defer ep1.Close()
	if err := ep0.Send(1, []byte("ok")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if got, err := ep1.Recv(0); err != nil || string(got) != "ok" {
		t.Fatalf("recv: %q, %v", got, err)
	}
}

// TestPairHelloSessionMismatchRejected: the session token minted per run
// is what locks out stale pair dialers; a mismatch is an explicit error.
func TestPairHelloSessionMismatchRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	o := Options{Rank: 2, World: 3}
	current := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	stale := [8]byte{8, 7, 6, 5, 4, 3, 2, 1}
	deadline := time.Now().Add(2 * time.Second)
	go writePairHello(a, Options{Rank: 1, World: 3}, stale, deadline)
	if _, err := readPairHello(b, o, current, deadline); err == nil || !strings.Contains(err.Error(), "session") {
		t.Fatalf("got %v, want session mismatch error", err)
	}
}

// TestHelloWorldMismatchRejected: a worker configured for a different
// world size cannot join.
func TestHelloWorldMismatchRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	deadline := time.Now().Add(2 * time.Second)
	go writeHello(a, Options{Rank: 1, World: 4}, "127.0.0.1:1", deadline)
	if _, _, err := readHello(b, Options{Rank: 0, World: 2}, deadline); err == nil || !strings.Contains(err.Error(), "world") {
		t.Fatalf("got %v, want world mismatch error", err)
	}
}

// TestWorldOfOne: a single-rank group needs no sockets; self-sends and
// barriers still work.
func TestWorldOfOne(t *testing.T) {
	ep, err := Dial(Options{Rank: 0, World: 1, Addr: "127.0.0.1:1"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ep.Close()
	if err := ep.Send(0, []byte("self")); err != nil {
		t.Fatalf("self send: %v", err)
	}
	if got, err := ep.Recv(0); err != nil || string(got) != "self" {
		t.Fatalf("self recv: %q, %v", got, err)
	}
	if err := ep.Barrier(); err != nil {
		t.Fatalf("barrier: %v", err)
	}
}
