package cluster

import (
	"encoding/binary"
	"fmt"
)

// Transport is one rank's endpoint onto the fabric that moves wire frames
// between ranks. Every collective in this package — the all-to-all, the
// reduce-scatter allreduce, the stats gather and the barrier — is written
// against Send and Recv alone, so any fabric that implements it (the
// in-process channel fabric, the TCP backend in cluster/tcptransport) runs
// the same collective code and delivers bit-identical results.
//
// Contract:
//
//   - Send delivers buf to rank to's matching Recv. Delivery is ordered per
//     directed pair (FIFO): two Sends from the same source to the same
//     destination are Recv'd in Send order. Self-sends (to == Rank()) are
//     legal and loop back locally.
//   - Recv blocks until the next buffer from the named source arrives. The
//     in-process fabric delivers zero-copy — the receiver aliases the
//     sender's buffer — and no collective ends in a barrier, so a sender
//     may leave a collective while peers still read what it sent. It
//     must not mutate a sent buffer until a later collective that every
//     peer joins only after reading it; wire transports copy.
//   - Close tears the endpoint down. Pending and future operations on a
//     closed (or peer-failed) endpoint return errors instead of blocking:
//     a transport failure surfaces as an error from the collective that
//     observed it, never as a deadlock.
//
// Methods are called from the owning rank's goroutine only; an endpoint
// need not support concurrent Sends or Recvs from multiple goroutines.
type Transport interface {
	// Rank is this endpoint's rank id in [0, World).
	Rank() int
	// World is the fixed group size.
	World() int
	// Send delivers buf to rank to. Empty (nil or zero-length) buffers are
	// delivered as zero-length messages.
	Send(to int, buf []byte) error
	// Recv blocks for the next buffer from rank from.
	Recv(from int) ([]byte, error)
	// Close releases the endpoint. For group-scoped fabrics (the in-process
	// one) closing any endpoint tears down the whole group.
	Close() error
}

// sizeRowBytes is the wire size of one rank's payload-size row: one int64
// per destination rank.
func sizeRowBytes(world int) int { return 8 * world }

// encodeSizeRow writes the byte lengths of send into row (which must be
// sizeRowBytes long): the per-destination payload sizes rank 0 aggregates
// into the global matrix its cost model reads.
func encodeSizeRow(row []byte, send [][]byte) {
	for to, buf := range send {
		binary.LittleEndian.PutUint64(row[8*to:], uint64(len(buf)))
	}
}

// decodeSizeRow parses one rank's size row into dst (length world).
func decodeSizeRow(dst []int64, row []byte) error {
	if len(row) != 8*len(dst) {
		return fmt.Errorf("cluster: size row is %d bytes, want %d", len(row), 8*len(dst))
	}
	for to := range dst {
		dst[to] = int64(binary.LittleEndian.Uint64(row[8*to:]))
	}
	return nil
}
