package tcptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Post-handshake frame kinds. Every frame is
// kind byte | payload length uint32 LE | payload.
const (
	kData        = 1 // a Send payload, delivered to the per-source inbox
	kCloseNotify = 4 // sender is leaving the group gracefully

	frameHeaderBytes = 5
)

// endpoint is one rank's live connection set, implementing
// cluster.Transport. One reader goroutine per peer connection demuxes
// frames into per-source inboxes; Send, Recv and Close run on the owning
// rank's goroutine, so each connection has a single writer and no write
// lock.
//
// Failure model: the first connection-level error (EOF, short read,
// oversized or unknown frame) poisons the endpoint — the error is
// published, every connection is closed (which surfaces at each peer as
// EOF and cascades the teardown group-wide), inboxes are marked dead, and
// every blocked or future call returns the error. Messages that arrived
// before the poison stay drainable.
//
// A peer's close notify is not a failure: that peer has finished and left,
// and the ranks still running must be able to finish the step it already
// sent its share of. It marks only that peer departed: its inbox drains
// and then reports the departure, and its reader stops. Needing something
// from a departed peer — a Recv past its drained inbox or a Send to it —
// poisons the endpoint, so a group whose member left too early still
// errors instead of deadlocking.
type endpoint struct {
	rank  int
	world int
	conns []net.Conn // by peer rank; conns[rank] is nil

	counters []peerCounters // by peer rank; counters[rank] is unused (self-sends skip the wire)

	inboxes []*inbox // by source rank; inboxes[rank] is the self-send loop

	gone []chan struct{} // by peer rank: closed by that peer's reader on its close notify

	mu       sync.Mutex
	perr     error
	poisoned chan struct{} // closed on first poison

	closeOnce sync.Once
	wg        sync.WaitGroup
}

func newEndpoint(o Options, conns []net.Conn) *endpoint {
	e := &endpoint{
		rank:     o.Rank,
		world:    o.World,
		conns:    conns,
		counters: make([]peerCounters, o.World),
		inboxes:  make([]*inbox, o.World),
		gone:     make([]chan struct{}, o.World),
		poisoned: make(chan struct{}),
	}
	for r := range e.inboxes {
		e.inboxes[r] = newInbox()
		e.gone[r] = make(chan struct{})
	}
	for r, c := range conns {
		if c == nil {
			continue
		}
		c.SetDeadline(time.Time{}) // handshake deadlines end here
		e.wg.Add(1)
		go e.readLoop(r, c)
	}
	return e
}

func (e *endpoint) Rank() int  { return e.rank }
func (e *endpoint) World() int { return e.world }

func (e *endpoint) Send(to int, buf []byte) error {
	if to < 0 || to >= e.world {
		return fmt.Errorf("tcptransport: send to rank %d outside world of %d", to, e.world)
	}
	if int64(len(buf)) > maxFrameBytes {
		return fmt.Errorf("tcptransport: rank %d: %d-byte frame to rank %d exceeds the %d-byte limit", e.rank, len(buf), to, maxFrameBytes)
	}
	if err := e.errIfPoisoned(); err != nil {
		return err
	}
	if to == e.rank {
		// Wire sends copy (the kernel has the bytes before Send returns),
		// so the loopback copies too: a self-sent buffer is immediately
		// reusable either way.
		cp := make([]byte, len(buf))
		copy(cp, buf)
		e.inboxes[to].push(cp)
		return nil
	}
	select {
	case <-e.gone[to]:
		e.poison(fmt.Errorf("tcptransport: rank %d send to rank %d: %w", e.rank, to, errLeft(to)))
		return e.err()
	default:
	}
	if err := e.writeFrame(to, kData, buf); err != nil {
		e.poison(fmt.Errorf("tcptransport: rank %d send to rank %d: %w", e.rank, to, err))
		return e.err()
	}
	return nil
}

func (e *endpoint) Recv(from int) ([]byte, error) {
	if from < 0 || from >= e.world {
		return nil, fmt.Errorf("tcptransport: recv from rank %d outside world of %d", from, e.world)
	}
	buf, err := e.inboxes[from].pop()
	if err != nil {
		// Only a departure kills a single inbox; waiting on a rank that
		// has left is a group failure, so it poisons like any other.
		e.poison(err)
		return nil, err
	}
	return buf, nil
}

// Close leaves the group gracefully: notify every peer under a bounded
// write deadline, then poison locally (closing the connections) and join
// the readers. Each peer marks this rank departed when the notify
// arrives and stops reading its connection, so it never sees the EOF
// behind it; data it already received stays drainable, and it keeps
// talking to the ranks still in the group.
func (e *endpoint) Close() error {
	e.closeOnce.Do(func() {
		deadline := time.Now().Add(closeTimeout)
		for r, c := range e.conns {
			if c == nil {
				continue
			}
			c.SetWriteDeadline(deadline)
			_ = e.writeFrame(r, kCloseNotify, nil)
		}
		e.poison(fmt.Errorf("tcptransport: rank %d endpoint closed", e.rank))
		e.wg.Wait()
	})
	return nil
}

// Kill severs the endpoint abruptly: no close notify is sent, the
// connections just die — which is exactly what a crashed rank looks like
// from the other end of the wire. Peers observe a mid-stream EOF and
// poison themselves, turning every blocked or future collective into a
// prompt error. The chaos tests use it to police the errors-not-deadlocks
// contract; cooperative teardown should use Close. Safe to call more than
// once and concurrently with any other method.
func (e *endpoint) Kill() {
	e.closeOnce.Do(func() {}) // a later Close must not send close notifies
	e.poison(fmt.Errorf("tcptransport: rank %d killed (fault injection)", e.rank))
	e.wg.Wait()
}

// writeFrame writes one frame to peer to. Callers run on the owning
// rank's goroutine, so writes to a connection never interleave. Header
// and payload go out in one gathered write: a receiver that rejects the
// header and closes cannot fail the sender's second write of the same
// frame.
func (e *endpoint) writeFrame(to int, kind byte, payload []byte) error {
	hdr := make([]byte, frameHeaderBytes)
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	frame := net.Buffers{hdr}
	if len(payload) > 0 {
		frame = append(frame, payload)
	}
	t0 := time.Now()
	if _, err := frame.WriteTo(e.conns[to]); err != nil {
		return err
	}
	e.counters[to].countSend(frameHeaderBytes+len(payload), time.Since(t0))
	return nil
}

// readLoop demuxes frames from one peer until the connection dies or the
// endpoint is poisoned. Inbox pushes never block, so a slow local Recv
// cannot stall the wire.
func (e *endpoint) readLoop(from int, c net.Conn) {
	defer e.wg.Done()
	var hdr [frameHeaderBytes]byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			e.poison(fmt.Errorf("tcptransport: rank %d lost the connection to rank %d: %w", e.rank, from, err))
			return
		}
		kind := hdr[0]
		n := int64(binary.LittleEndian.Uint32(hdr[1:]))
		if n > maxFrameBytes {
			e.poison(fmt.Errorf("tcptransport: rank %d: %d-byte frame from rank %d exceeds the %d-byte limit", e.rank, n, from, maxFrameBytes))
			return
		}
		payload := []byte{}
		var transfer time.Duration
		if n > 0 {
			// Only the payload read is timed: the header ReadFull above
			// blocks for as long as the peer has nothing to say, and that
			// idle wait is not transfer cost.
			payload = make([]byte, n)
			t0 := time.Now()
			if _, err := io.ReadFull(c, payload); err != nil {
				e.poison(fmt.Errorf("tcptransport: rank %d truncated frame from rank %d: %w", e.rank, from, err))
				return
			}
			transfer = time.Since(t0)
		}
		e.counters[from].countRecv(frameHeaderBytes+int(n), transfer)
		switch kind {
		case kData:
			e.inboxes[from].push(payload)
		case kCloseNotify:
			e.depart(from)
			return
		default:
			e.poison(fmt.Errorf("tcptransport: rank %d: unknown frame kind %d from rank %d", e.rank, kind, from))
			return
		}
	}
}

// poison publishes the endpoint's terminal error exactly once, closes
// every connection (cascading the failure to peers as EOF), and wakes
// every blocked Recv. Safe from any goroutine.
func (e *endpoint) poison(err error) {
	e.mu.Lock()
	if e.perr != nil {
		e.mu.Unlock()
		return
	}
	e.perr = err
	close(e.poisoned)
	e.mu.Unlock()
	for _, ib := range e.inboxes {
		ib.kill(err)
	}
	for _, c := range e.conns {
		if c != nil {
			c.Close()
		}
	}
}

// depart records that peer from left the group gracefully: its inbox
// drains and then fails, and Send sees gone[from]. Called once per peer,
// from that peer's reader.
func (e *endpoint) depart(from int) {
	e.inboxes[from].kill(fmt.Errorf("tcptransport: rank %d: %w", e.rank, errLeft(from)))
	close(e.gone[from])
}

func errLeft(rank int) error {
	return fmt.Errorf("rank %d left the group", rank)
}

func (e *endpoint) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.perr == nil {
		return errors.New("tcptransport: endpoint failed")
	}
	return e.perr
}

func (e *endpoint) errIfPoisoned() error {
	select {
	case <-e.poisoned:
		return e.err()
	default:
		return nil
	}
}

// inbox is one source rank's delivered-message queue. Pushes (from the
// reader goroutine) never block; pop blocks until a message arrives or
// the inbox is killed (by a poison or the source's departure), draining
// queued messages before reporting the kill — the same drain-then-fail
// semantics as the in-process fabric.
type inbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    [][]byte
	head int
	err  error // set by the first kill
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) push(buf []byte) {
	ib.mu.Lock()
	ib.q = append(ib.q, buf)
	ib.mu.Unlock()
	ib.cond.Signal()
}

func (ib *inbox) kill(err error) {
	ib.mu.Lock()
	if ib.err == nil {
		ib.err = err
	}
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

func (ib *inbox) pop() ([]byte, error) {
	ib.mu.Lock()
	for ib.head >= len(ib.q) && ib.err == nil {
		ib.cond.Wait()
	}
	if ib.head < len(ib.q) {
		buf := ib.q[ib.head]
		ib.q[ib.head] = nil
		ib.head++
		if ib.head == len(ib.q) {
			ib.q = ib.q[:0]
			ib.head = 0
		}
		ib.mu.Unlock()
		return buf, nil
	}
	err := ib.err
	ib.mu.Unlock()
	return nil, err
}
