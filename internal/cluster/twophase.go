package cluster

import (
	"encoding/binary"
	"fmt"

	"dlrmcomp/internal/netmodel"
)

// This file implements the hierarchical two-phase all-to-all. Payloads
// really take the staged route (they are copied into envelope bundles and
// re-routed through node leaders), so the algorithm is exercised end to end
// — delivery is bit-identical to the direct path by construction of the
// routing, not by sharing its code.
//
// Envelope wire format, used for every staged hop:
//
//	origFrom uint32 | origTo uint32 | payloadLen uint32 | payload
//
// A bundle is a concatenation of envelopes. Empty payloads are never
// enveloped: the direct path delivers them as empty, and skipping them
// keeps the two paths' results identical.
//
// Every bundle is allocated once, at its final size: its envelopes are
// counted first and copied second. A sender counts from send; a leader
// receives every bundle of a hop before it stages any of their envelopes
// onward, and counts from their headers. Each bundle is still a fresh buffer
// that its receiver may alias, as the eager delivery of the nonblocking
// collectives needs.

const envelopeHeaderBytes = 12

// envelopeBytes is the staged size of one payload: header plus payload.
func envelopeBytes(payload []byte) int { return envelopeHeaderBytes + len(payload) }

// appendEnvelope appends one routed payload to a bundle.
func appendEnvelope(dst []byte, origFrom, origTo int, payload []byte) []byte {
	var hdr [envelopeHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(origFrom))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(origTo))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// parseEnvelopes walks a bundle, invoking fn once per envelope. Payload
// slices alias the bundle. Both ids of every envelope are checked to name
// one of the n ranks before fn sees them.
func parseEnvelopes(bundle []byte, n int, fn func(origFrom, origTo int, payload []byte) error) error {
	for len(bundle) > 0 {
		if len(bundle) < envelopeHeaderBytes {
			return fmt.Errorf("cluster: truncated envelope header (%d trailing bytes)", len(bundle))
		}
		from := binary.LittleEndian.Uint32(bundle[0:4])
		to := binary.LittleEndian.Uint32(bundle[4:8])
		size := binary.LittleEndian.Uint32(bundle[8:12])
		bundle = bundle[envelopeHeaderBytes:]
		if uint64(len(bundle)) < uint64(size) {
			return fmt.Errorf("cluster: envelope %d->%d wants %d payload bytes, have %d", from, to, size, len(bundle))
		}
		if uint64(from) >= uint64(n) || uint64(to) >= uint64(n) {
			return fmt.Errorf("cluster: envelope %d->%d names a rank outside the %d of the cluster", from, to, n)
		}
		if err := fn(int(from), int(to), bundle[:size]); err != nil {
			return err
		}
		bundle = bundle[size:]
	}
	return nil
}

// hop is the leg of the staged route a bundle arrived on.
type hop int

const (
	hopLocal   hop = iota // phase 1: from a peer on the same node
	hopLeaders            // phase 2: from the leader of another node
	hopScatter            // phase 3: from the receiving rank's own leader
)

// checkRoute rejects an envelope origFrom->origTo that cannot have reached
// rank me from rank from on hop h. Both ids are in range. A phase-1
// envelope is the sender's own payload, for me or, at a leader, for another
// node; a phase-2 envelope leaves the sending leader's node for mine; a
// phase-3 envelope is for me, from another node.
func (c *Cluster) checkRoute(h hop, from, me, origFrom, origTo int) error {
	myNode := c.nodeOf[me]
	var ok bool
	switch h {
	case hopLocal:
		ok = origFrom == from && (origTo == me || me == c.leaders[myNode] && c.nodeOf[origTo] != myNode)
	case hopLeaders:
		ok = c.nodeOf[origFrom] == c.nodeOf[from] && c.nodeOf[origTo] == myNode
	case hopScatter:
		ok = origTo == me && c.nodeOf[origFrom] != myNode
	}
	if !ok {
		return fmt.Errorf("cluster: rank %d got envelope %d->%d from rank %d on phase %d, which that hop never carries", me, origFrom, origTo, from, h+1)
	}
	return nil
}

// parseBundle is parseEnvelopes for a bundle that arrived at rank me from
// rank from on hop h: fn sees only envelopes whose route is possible.
func (c *Cluster) parseBundle(bundle []byte, h hop, from, me int, fn func(origFrom, origTo int, payload []byte) error) error {
	return parseEnvelopes(bundle, c.N, func(origFrom, origTo int, payload []byte) error {
		if err := c.checkRoute(h, from, me, origFrom, origTo); err != nil {
			return err
		}
		return fn(origFrom, origTo, payload)
	})
}

// allocBundles gives every bundle with a non-zero size its buffer.
func allocBundles(bundles [][]byte, size []int) {
	for b, n := range size {
		if n > 0 {
			bundles[b] = make([]byte, 0, n)
		}
	}
}

// twoPhase runs the hierarchical all-to-all (§III-A adapted to a two-level
// machine):
//
//	phase 1 (intra, fast link): each rank sends every same-node peer its
//	  direct payload and ships all its cross-node payloads to the node
//	  leader;
//	phase 2 (inter, slow link): leaders exchange one bundle per remote
//	  node, carrying everything their node sends there;
//	phase 3 (intra, fast link): leaders scatter inbound envelopes to their
//	  final local rank.
//
// Rank 0 computes the collective's cost once through
// Net.TwoPhaseAllToAllCost (plus MetadataCost when variable) and returns it
// to the caller, which charges it into "<label>-intra" / "<label>-inter"
// buckets — immediately for the synchronous path, at Await for the
// nonblocking one. The staged data movement is real message routing over
// the transport; only the clock is modelled. Per-pair FIFO delivery orders
// the hops (a rank reads all phase-1 bundles before its leader's phase-3
// scatter), so a single trailing barrier closes the collective.
func (r *Rank) twoPhase(send [][]byte, variable bool) ([][]byte, netmodel.LinkCost, error) {
	c := r.c
	me := r.ID
	myNode := c.nodeOf[me]
	myLeader := c.leaders[myNode]
	leader := me == myLeader
	recv := make([][]byte, c.N)
	recv[me] = send[me]
	var cost netmodel.LinkCost
	deliver := func(origFrom int, payload []byte) error {
		if recv[origFrom] != nil {
			return fmt.Errorf("cluster: rank %d got a second payload from rank %d", me, origFrom)
		}
		recv[origFrom] = payload
		return nil
	}

	if err := r.postSizeRow(send); err != nil {
		return nil, cost, err
	}

	// --- phase 1 post: direct payloads to local peers, cross-node
	// payloads bundled to the leader (a leader keeps its own for phase 2).
	// Every same-node peer gets a message (possibly empty) — the receiver
	// unconditionally reads one bundle per local peer.
	firstHop := func(to int) int {
		switch {
		case to == me || len(send[to]) == 0:
			return -1
		case c.nodeOf[to] == myNode:
			return to
		case leader:
			return -1
		}
		return myLeader
	}
	size := r.scr.stage
	clear(size)
	for to := range c.N {
		if h := firstHop(to); h >= 0 {
			size[h] += envelopeBytes(send[to])
		}
	}
	bundles := make([][]byte, c.N)
	allocBundles(bundles, size)
	for to := range c.N {
		if h := firstHop(to); h >= 0 {
			bundles[h] = appendEnvelope(bundles[h], me, to, send[to])
		}
	}
	for to := 0; to < c.N; to++ {
		if to != me && c.nodeOf[to] == myNode {
			if err := r.tr.Send(to, bundles[to]); err != nil {
				return nil, cost, err
			}
		}
	}

	if me == 0 {
		if err := r.gatherSizeRows(); err != nil {
			return nil, cost, err
		}
		cost = c.Net.TwoPhaseAllToAllCost(r.scr.sizes)
		if variable {
			cost = cost.Add(c.Net.MetadataCost(c.N, MetadataBytesPerPair))
		}
	}

	// --- phase 1 read: unpack same-node bundles. A leader receives them
	// all before staging: crossByNode[nd] carries its own payloads for node
	// nd and then everything its peers forwarded there, in arrival order.
	inbound := make([][]byte, c.N)
	for from := 0; from < c.N; from++ {
		if from == me || c.nodeOf[from] != myNode {
			continue
		}
		bundle, err := r.tr.Recv(from)
		if err != nil {
			return nil, cost, err
		}
		inbound[from] = bundle
	}
	var crossByNode [][]byte
	if leader {
		nodeSize := size[:c.nodes]
		clear(nodeSize)
		for to := range c.N {
			if nd := c.nodeOf[to]; nd != myNode && len(send[to]) > 0 {
				nodeSize[nd] += envelopeBytes(send[to])
			}
		}
		for from, bundle := range inbound {
			err := c.parseBundle(bundle, hopLocal, from, me, func(_, origTo int, payload []byte) error {
				if origTo != me {
					nodeSize[c.nodeOf[origTo]] += envelopeBytes(payload)
				}
				return nil
			})
			if err != nil {
				return nil, cost, err
			}
		}
		crossByNode = make([][]byte, c.nodes)
		allocBundles(crossByNode, nodeSize)
		for to := range c.N {
			if nd := c.nodeOf[to]; nd != myNode && len(send[to]) > 0 {
				crossByNode[nd] = appendEnvelope(crossByNode[nd], me, to, send[to])
			}
		}
	}
	for from, bundle := range inbound {
		err := c.parseBundle(bundle, hopLocal, from, me, func(origFrom, origTo int, payload []byte) error {
			if origTo == me {
				return deliver(origFrom, payload)
			}
			nd := c.nodeOf[origTo]
			crossByNode[nd] = appendEnvelope(crossByNode[nd], origFrom, origTo, payload)
			return nil
		})
		if err != nil {
			return nil, cost, err
		}
	}

	// --- phase 2: leaders trade node-to-node bundles, then unpack inbound
	// ones — delivering their own payloads and rebundling the rest per
	// local rank, sized from every inbound bundle before any is copied.
	if leader {
		for nd, l := range c.leaders {
			if l != me {
				if err := r.tr.Send(l, crossByNode[nd]); err != nil {
					return nil, cost, err
				}
			}
		}
		clear(inbound)
		clear(size)
		for _, l := range c.leaders {
			if l == me {
				continue
			}
			bundle, err := r.tr.Recv(l)
			if err != nil {
				return nil, cost, err
			}
			inbound[l] = bundle
			err = c.parseBundle(bundle, hopLeaders, l, me, func(_, origTo int, payload []byte) error {
				if origTo != me {
					size[origTo] += envelopeBytes(payload)
				}
				return nil
			})
			if err != nil {
				return nil, cost, err
			}
		}
		scatter := make([][]byte, c.N)
		allocBundles(scatter, size)
		for _, l := range c.leaders {
			err := c.parseBundle(inbound[l], hopLeaders, l, me, func(origFrom, origTo int, payload []byte) error {
				if origTo == me {
					return deliver(origFrom, payload)
				}
				scatter[origTo] = appendEnvelope(scatter[origTo], origFrom, origTo, payload)
				return nil
			})
			if err != nil {
				return nil, cost, err
			}
		}
		// --- phase 3 post: scatter final deliveries to local ranks.
		for to := 0; to < c.N; to++ {
			if to != me && c.nodeOf[to] == myNode {
				if err := r.tr.Send(to, scatter[to]); err != nil {
					return nil, cost, err
				}
			}
		}
	} else {
		// --- phase 3 read: non-leaders take final deliveries from their
		// leader (FIFO after the leader's phase-1 bundle, already read).
		bundle, err := r.tr.Recv(myLeader)
		if err != nil {
			return nil, cost, err
		}
		err = c.parseBundle(bundle, hopScatter, myLeader, me, func(origFrom, _ int, payload []byte) error {
			return deliver(origFrom, payload)
		})
		if err != nil {
			return nil, cost, err
		}
	}
	// Trailing barrier so nobody starts the next collective (reusing send
	// buffers the in-process fabric delivered by reference) before all
	// reads finish.
	if err := r.tr.Barrier(); err != nil {
		return nil, cost, err
	}
	return recv, cost, nil
}
