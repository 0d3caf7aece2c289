package cluster

import (
	"fmt"
	"sync"
)

// The in-process channel fabric: the reference Transport implementation.
// Every directed rank pair owns a buffered channel; Send passes the buffer
// pointer through it (zero-copy — receiver and sender alias the same
// memory, exactly like the shared-memory mailboxes this fabric replaced).
// Closing any endpoint tears the whole fabric down: pending Sends and
// Recvs unblock with errors, which is what lets an in-process trainer
// abort cleanly instead of deadlocking when a rank bails out
// mid-collective.

// inprocChanCap bounds in-flight messages per directed pair. A collective
// posts at most two per pair (an all-to-all's size row and payload, or the
// allreduce's two rounds) and receives every message of it before it
// leaves, and no rank leaves a collective before every peer has joined it.
// So a rank runs at most one collective ahead of any peer, at most four
// messages wait per pair, and sends never block in practice.
const inprocChanCap = 16

// inprocFabric is the shared state behind one group of in-process endpoints.
type inprocFabric struct {
	n     int
	chans [][]chan []byte // [from][to]

	closeOnce sync.Once
	done      chan struct{}
}

// inprocEndpoint is one rank's handle onto the fabric.
type inprocEndpoint struct {
	f    *inprocFabric
	rank int
}

// NewInprocFabric builds the in-process fabric and returns its n endpoints,
// index i serving rank i.
func NewInprocFabric(n int) []Transport {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: invalid rank count %d", n))
	}
	f := &inprocFabric{n: n, done: make(chan struct{})}
	f.chans = make([][]chan []byte, n)
	for from := range f.chans {
		f.chans[from] = make([]chan []byte, n)
		for to := range f.chans[from] {
			f.chans[from][to] = make(chan []byte, inprocChanCap)
		}
	}
	eps := make([]Transport, n)
	for r := 0; r < n; r++ {
		eps[r] = &inprocEndpoint{f: f, rank: r}
	}
	return eps
}

func (e *inprocEndpoint) Rank() int  { return e.rank }
func (e *inprocEndpoint) World() int { return e.f.n }

func (e *inprocEndpoint) Send(to int, buf []byte) error {
	if to < 0 || to >= e.f.n {
		return fmt.Errorf("cluster: rank %d sends to invalid rank %d of %d", e.rank, to, e.f.n)
	}
	select {
	case e.f.chans[e.rank][to] <- buf:
		return nil
	case <-e.f.done:
		return fmt.Errorf("cluster: rank %d send to %d: fabric closed", e.rank, to)
	}
}

func (e *inprocEndpoint) Recv(from int) ([]byte, error) {
	if from < 0 || from >= e.f.n {
		return nil, fmt.Errorf("cluster: rank %d receives from invalid rank %d of %d", e.rank, from, e.f.n)
	}
	ch := e.f.chans[from][e.rank]
	// Prefer draining already-delivered messages over reporting the close,
	// so a graceful teardown does not drop in-flight payloads.
	select {
	case buf := <-ch:
		return buf, nil
	default:
	}
	select {
	case buf := <-ch:
		return buf, nil
	case <-e.f.done:
		return nil, fmt.Errorf("cluster: rank %d recv from %d: fabric closed", e.rank, from)
	}
}

// Close tears down the whole fabric (the group shares one process; a
// single rank abandoning the collectives must unblock everyone).
func (e *inprocEndpoint) Close() error {
	e.f.closeOnce.Do(func() { close(e.f.done) })
	return nil
}
