// Package tcptransport is the real multi-process backend for
// cluster.Transport: one OS process per rank, stdlib net sockets, no
// dependencies. It exists so the same dist.Trainer that runs N ranks as
// goroutines can run N ranks as N processes — the conformance suite in
// internal/cluster and internal/dist holds both backends to bit-identical
// losses and sim-time buckets.
//
// Rendezvous: rank 0 listens at Options.Addr (or accepts on an
// already-bound Options.Listener); every other rank opens an
// ephemeral listener for peer connections, dials rank 0 (retrying until
// DialTimeout, so start order is free), and sends a hello carrying its
// rank and listener address. Once all World-1 hellos are in, rank 0 mints
// a random session token and answers each peer with a welcome carrying
// the token and the full address book. Peer pairs then connect directly:
// rank i dials rank j for every 0 < j < i and identifies itself with the
// session token, so a stale worker from a previous run — or any dialer
// without the token — is rejected without disturbing the group. The
// (i, 0) pairs reuse the rendezvous connections.
//
//	rank 1 ──hello──▶             ◀──hello── rank 2
//	            │      rank 0        │
//	            ◀─welcome─┴─welcome──▶        (session token + address book)
//	rank 1 ◀──────── pair hello ──────── rank 2
//
// After the handshake every frame on a connection is
//
//	kind byte | payload length uint32 LE | payload
//
// mirroring the length-prefixed fused frames of internal/dist's wire
// format. Data frames are queued per source rank (unbounded, so a reader
// never stalls the wire); barrier frames implement a star barrier through
// rank 0.
//
// Failure and shutdown: the first error on any connection — EOF, a
// malformed or oversized frame — poisons the endpoint: the stored error
// is published, every connection is closed (which cascades the failure
// to all peers as EOF), and every blocked Recv, Send, or Barrier returns
// the error instead of deadlocking. Close is the graceful flavor: it
// sends a close-notify frame to each peer under a CloseTimeout write
// deadline, then poisons locally and joins the reader goroutines. A
// close notify marks only its sender departed, so the first rank to
// finish does not tear down the sockets slower ranks still use; a rank
// that then needs the departed peer — a Recv past its drained inbox, a
// Send to it, a barrier — poisons as above. Messages already delivered
// before a close or failure remain drainable from Recv, matching the
// in-process fabric.
//
// Sim time is unchanged by this package: collectives charge the same
// modelled netmodel costs whether frames cross a channel or a socket —
// wall-clock transport speed never leaks into the accounting.
package tcptransport

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"dlrmcomp/internal/cluster"
)

// Wire constants. The magic spells "DLRM"; bump version on any change to
// the handshake or frame layout.
const (
	magic   = 0x444C524D
	version = 1

	// Handshake message kinds.
	hkHello   = 1 // worker -> rank 0: rank + pair-listener address
	hkWelcome = 2 // rank 0 -> worker: session token + address book
	hkPair    = 3 // worker -> worker: session token + dialer rank

	helloFixedBytes   = 4 + 1 + 1 + 4 + 4 + 2 // magic | ver | kind | world | rank | addrLen
	welcomeFixedBytes = 4 + 1 + 1 + 8 + 4     // magic | ver | kind | session | world
	pairHelloBytes    = 4 + 1 + 1 + 8 + 4     // magic | ver | kind | session | from

	maxAddrBytes = 256

	defaultDialTimeout      = 10 * time.Second
	defaultHandshakeTimeout = 10 * time.Second
	defaultCloseTimeout     = 2 * time.Second
	defaultMaxFrameBytes    = 1 << 30
)

// Options configures one rank's endpoint. Every rank of a group must use
// the same World and Addr; the rest may differ per process.
type Options struct {
	// Rank is this process's rank id in [0, World).
	Rank int
	// World is the group size.
	World int
	// Addr is rank 0's rendezvous address ("host:port"). Rank 0 listens
	// on it; other ranks dial it, and open their own pair listeners on
	// the same host with an ephemeral port.
	Addr string
	// Listener, when set on rank 0, is the already-bound rendezvous
	// listener, used instead of listening on Addr; Dial takes ownership
	// and closes it after the rendezvous. Binding port 0 and passing the
	// listener here, with its address as every rank's Addr, leaves no
	// window in which another socket can take the port. Ignored on
	// other ranks.
	Listener net.Listener
	// DialTimeout bounds how long a worker keeps retrying the rendezvous
	// dial while rank 0 is still coming up. Default 10s.
	DialTimeout time.Duration
	// HandshakeTimeout bounds the whole hello/welcome/pair exchange once
	// connected. Default 10s.
	HandshakeTimeout time.Duration
	// CloseTimeout bounds the close-notify writes during a graceful
	// Close. Default 2s.
	CloseTimeout time.Duration
	// MaxFrameBytes caps a single frame's payload; an incoming frame
	// above it poisons the endpoint, an outgoing one fails the Send.
	// Default 1 GiB.
	MaxFrameBytes int64
}

// withDefaults resolves zero fields to their defaults.
func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = defaultDialTimeout
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = defaultHandshakeTimeout
	}
	if o.CloseTimeout <= 0 {
		o.CloseTimeout = defaultCloseTimeout
	}
	if o.MaxFrameBytes <= 0 {
		o.MaxFrameBytes = defaultMaxFrameBytes
	}
	return o
}

// Dial joins the group and blocks until every pairwise connection is
// established, returning this rank's endpoint. All World processes must
// call it (in any order); a worker retries the rendezvous dial until
// rank 0 is up or DialTimeout expires.
func Dial(o Options) (cluster.Transport, error) {
	if o.Rank == 0 && o.Listener != nil {
		defer o.Listener.Close() // once the rendezvous ends, or if it never starts
	}
	if o.World <= 0 {
		return nil, fmt.Errorf("tcptransport: world must be positive, got %d", o.World)
	}
	if o.Rank < 0 || o.Rank >= o.World {
		return nil, fmt.Errorf("tcptransport: rank %d outside world of %d", o.Rank, o.World)
	}
	if o.Addr == "" {
		return nil, fmt.Errorf("tcptransport: rendezvous address is empty")
	}
	o = o.withDefaults()
	if o.World == 1 {
		// A single-rank group moves no bytes; skip the sockets entirely.
		return newEndpoint(o, make([]net.Conn, 1)), nil
	}
	if o.Rank == 0 {
		return rendezvousLead(o)
	}
	return rendezvousWorker(o)
}

// rendezvousLead is rank 0's side: accept a hello from every worker,
// mint the session token, answer each with the welcome. Dialers with a
// garbled or duplicate hello (a stale worker from a previous run, a port
// scanner) are dropped without failing the group.
func rendezvousLead(o Options) (cluster.Transport, error) {
	ln := o.Listener // Dial closes a passed listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", o.Addr); err != nil {
			return nil, fmt.Errorf("tcptransport: rank 0 listen on %s: %w", o.Addr, err)
		}
		defer ln.Close()
	}
	deadline := time.Now().Add(o.HandshakeTimeout)
	conns := make([]net.Conn, o.World)
	addrs := make([]string, o.World)
	fail := func(err error) (cluster.Transport, error) {
		closeAll(conns)
		return nil, err
	}
	var lastReject error
	for need := o.World - 1; need > 0; {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		c, err := ln.Accept()
		if err != nil {
			missing := missingRanks(conns)
			if lastReject != nil {
				return fail(fmt.Errorf("tcptransport: rendezvous gave up waiting for ranks %v (last rejected dialer: %v): %w", missing, lastReject, err))
			}
			return fail(fmt.Errorf("tcptransport: rendezvous gave up waiting for ranks %v: %w", missing, err))
		}
		rank, addr, err := readHello(c, o, deadline)
		if err == nil && conns[rank] != nil {
			err = fmt.Errorf("duplicate hello for rank %d", rank)
		}
		if err != nil {
			c.Close()
			lastReject = err
			continue
		}
		conns[rank] = c
		addrs[rank] = addr
		need--
	}
	var session [8]byte
	if _, err := rand.Read(session[:]); err != nil {
		return fail(fmt.Errorf("tcptransport: session token: %w", err))
	}
	for r := 1; r < o.World; r++ {
		if err := writeWelcome(conns[r], o, session, addrs, deadline); err != nil {
			return fail(fmt.Errorf("tcptransport: welcome to rank %d: %w", r, err))
		}
	}
	return newEndpoint(o, conns), nil
}

// rendezvousWorker is a non-zero rank's side: open the pair listener,
// dial rank 0 (retrying while it comes up), exchange hello/welcome, then
// dial every lower rank and accept every higher one.
func rendezvousWorker(o Options) (cluster.Transport, error) {
	host, _, err := net.SplitHostPort(o.Addr)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: rendezvous address %q: %w", o.Addr, err)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, fmt.Errorf("tcptransport: rank %d pair listener: %w", o.Rank, err)
	}
	defer ln.Close()
	conns := make([]net.Conn, o.World)
	fail := func(err error) (cluster.Transport, error) {
		closeAll(conns)
		return nil, err
	}

	dialDeadline := time.Now().Add(o.DialTimeout)
	for {
		c, err := net.DialTimeout("tcp", o.Addr, time.Until(dialDeadline))
		if err == nil {
			conns[0] = c
			break
		}
		if !time.Now().Before(dialDeadline) {
			return fail(fmt.Errorf("tcptransport: rank %d could not reach rank 0 at %s within %v: %w", o.Rank, o.Addr, o.DialTimeout, err))
		}
		time.Sleep(50 * time.Millisecond)
	}

	deadline := time.Now().Add(o.HandshakeTimeout)
	if err := writeHello(conns[0], o, ln.Addr().String(), deadline); err != nil {
		return fail(fmt.Errorf("tcptransport: rank %d hello: %w", o.Rank, err))
	}
	session, addrs, err := readWelcome(conns[0], o, deadline)
	if err != nil {
		return fail(fmt.Errorf("tcptransport: rank %d welcome: %w", o.Rank, err))
	}
	for r := 1; r < o.Rank; r++ {
		c, err := net.DialTimeout("tcp", addrs[r], time.Until(deadline))
		if err != nil {
			return fail(fmt.Errorf("tcptransport: rank %d dial rank %d at %s: %w", o.Rank, r, addrs[r], err))
		}
		conns[r] = c
		if err := writePairHello(c, o, session, deadline); err != nil {
			return fail(fmt.Errorf("tcptransport: rank %d pair hello to rank %d: %w", o.Rank, r, err))
		}
	}
	var lastReject error
	for need := o.World - 1 - o.Rank; need > 0; {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		c, err := ln.Accept()
		if err != nil {
			if lastReject != nil {
				return fail(fmt.Errorf("tcptransport: rank %d gave up waiting for %d pair connection(s) (last rejected dialer: %v): %w", o.Rank, need, lastReject, err))
			}
			return fail(fmt.Errorf("tcptransport: rank %d gave up waiting for %d pair connection(s): %w", o.Rank, need, err))
		}
		from, err := readPairHello(c, o, session, deadline)
		if err == nil && (from <= o.Rank || conns[from] != nil) {
			err = fmt.Errorf("unexpected pair hello from rank %d", from)
		}
		if err != nil {
			c.Close()
			lastReject = err
			continue
		}
		conns[from] = c
		need--
	}
	return newEndpoint(o, conns), nil
}

// readHello validates a worker's hello, returning its rank and announced
// pair-listener address.
func readHello(c net.Conn, o Options, deadline time.Time) (int, string, error) {
	c.SetDeadline(deadline)
	var fixed [helloFixedBytes]byte
	if _, err := io.ReadFull(c, fixed[:]); err != nil {
		return 0, "", fmt.Errorf("read hello: %w", err)
	}
	if got := binary.LittleEndian.Uint32(fixed[0:]); got != magic {
		return 0, "", fmt.Errorf("hello magic %#x, want %#x", got, uint32(magic))
	}
	if fixed[4] != version {
		return 0, "", fmt.Errorf("hello version %d, want %d", fixed[4], version)
	}
	if fixed[5] != hkHello {
		return 0, "", fmt.Errorf("handshake kind %d, want hello (%d)", fixed[5], hkHello)
	}
	if got := int(binary.LittleEndian.Uint32(fixed[6:])); got != o.World {
		return 0, "", fmt.Errorf("hello world %d, want %d", got, o.World)
	}
	rank := int(binary.LittleEndian.Uint32(fixed[10:]))
	if rank < 1 || rank >= o.World {
		return 0, "", fmt.Errorf("hello rank %d outside (0, %d)", rank, o.World)
	}
	n := int(binary.LittleEndian.Uint16(fixed[14:]))
	if n == 0 || n > maxAddrBytes {
		return 0, "", fmt.Errorf("hello address length %d", n)
	}
	ab := make([]byte, n)
	if _, err := io.ReadFull(c, ab); err != nil {
		return 0, "", fmt.Errorf("read hello address: %w", err)
	}
	return rank, string(ab), nil
}

func writeHello(c net.Conn, o Options, listenAddr string, deadline time.Time) error {
	if len(listenAddr) == 0 || len(listenAddr) > maxAddrBytes {
		return fmt.Errorf("pair listener address %q out of range", listenAddr)
	}
	buf := make([]byte, 0, helloFixedBytes+len(listenAddr))
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = append(buf, version, hkHello)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(o.World))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Rank))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(listenAddr)))
	buf = append(buf, listenAddr...)
	c.SetDeadline(deadline)
	_, err := c.Write(buf)
	return err
}

func writeWelcome(c net.Conn, o Options, session [8]byte, addrs []string, deadline time.Time) error {
	buf := make([]byte, 0, welcomeFixedBytes+16*o.World)
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = append(buf, version, hkWelcome)
	buf = append(buf, session[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(o.World))
	for r := 1; r < o.World; r++ {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(addrs[r])))
		buf = append(buf, addrs[r]...)
	}
	c.SetDeadline(deadline)
	_, err := c.Write(buf)
	return err
}

func readWelcome(c net.Conn, o Options, deadline time.Time) ([8]byte, []string, error) {
	var session [8]byte
	c.SetDeadline(deadline)
	var fixed [welcomeFixedBytes]byte
	if _, err := io.ReadFull(c, fixed[:]); err != nil {
		return session, nil, fmt.Errorf("read welcome: %w", err)
	}
	if got := binary.LittleEndian.Uint32(fixed[0:]); got != magic {
		return session, nil, fmt.Errorf("welcome magic %#x, want %#x", got, uint32(magic))
	}
	if fixed[4] != version {
		return session, nil, fmt.Errorf("welcome version %d, want %d", fixed[4], version)
	}
	if fixed[5] != hkWelcome {
		return session, nil, fmt.Errorf("handshake kind %d, want welcome (%d)", fixed[5], hkWelcome)
	}
	copy(session[:], fixed[6:14])
	if got := int(binary.LittleEndian.Uint32(fixed[14:])); got != o.World {
		return session, nil, fmt.Errorf("welcome world %d, want %d", got, o.World)
	}
	addrs := make([]string, o.World)
	for r := 1; r < o.World; r++ {
		var lb [2]byte
		if _, err := io.ReadFull(c, lb[:]); err != nil {
			return session, nil, fmt.Errorf("read address book: %w", err)
		}
		n := int(binary.LittleEndian.Uint16(lb[:]))
		if n == 0 || n > maxAddrBytes {
			return session, nil, fmt.Errorf("address book entry length %d", n)
		}
		ab := make([]byte, n)
		if _, err := io.ReadFull(c, ab); err != nil {
			return session, nil, fmt.Errorf("read address book: %w", err)
		}
		addrs[r] = string(ab)
	}
	return session, addrs, nil
}

func writePairHello(c net.Conn, o Options, session [8]byte, deadline time.Time) error {
	buf := make([]byte, 0, pairHelloBytes)
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = append(buf, version, hkPair)
	buf = append(buf, session[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Rank))
	c.SetDeadline(deadline)
	_, err := c.Write(buf)
	return err
}

// readPairHello validates a peer-to-peer dialer: magic, version, and —
// the stale-run defense — the session token minted by this run's rank 0.
func readPairHello(c net.Conn, o Options, session [8]byte, deadline time.Time) (int, error) {
	c.SetDeadline(deadline)
	var fixed [pairHelloBytes]byte
	if _, err := io.ReadFull(c, fixed[:]); err != nil {
		return 0, fmt.Errorf("read pair hello: %w", err)
	}
	if got := binary.LittleEndian.Uint32(fixed[0:]); got != magic {
		return 0, fmt.Errorf("pair hello magic %#x, want %#x", got, uint32(magic))
	}
	if fixed[4] != version {
		return 0, fmt.Errorf("pair hello version %d, want %d", fixed[4], version)
	}
	if fixed[5] != hkPair {
		return 0, fmt.Errorf("handshake kind %d, want pair hello (%d)", fixed[5], hkPair)
	}
	var got [8]byte
	copy(got[:], fixed[6:14])
	if got != session {
		return 0, fmt.Errorf("pair hello session token mismatch (stale peer?)")
	}
	from := int(binary.LittleEndian.Uint32(fixed[14:]))
	if from < 1 || from >= o.World {
		return 0, fmt.Errorf("pair hello rank %d outside (0, %d)", from, o.World)
	}
	return from, nil
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

func missingRanks(conns []net.Conn) []int {
	var missing []int
	for r := 1; r < len(conns); r++ {
		if conns[r] == nil {
			missing = append(missing, r)
		}
	}
	return missing
}
