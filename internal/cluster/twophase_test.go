package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/testutil"
)

func testHier(rpn int) netmodel.Hierarchical { return netmodel.PaperHierarchical(rpn) }

// testPayload builds a distinct payload per (from, to, round); size varies
// with the pair, including empty payloads, to exercise variable-size
// bundles.
func testPayload(from, to, round, n int) []byte {
	if (from+to+round)%5 == 0 {
		return nil
	}
	size := 1 + (from*31+to*7+round*13)%64
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(from ^ (to << 2) ^ (round << 4) ^ i)
	}
	return buf
}

// runExchange performs rounds of all-to-alls on a fresh cluster and returns
// every rank's received buffers: out[round][receiver][sender].
func runExchange(n int, net netmodel.Topology, algo A2AAlgo, rounds int) [][][][]byte {
	c := New(n, net)
	out := make([][][][]byte, rounds)
	for r := range out {
		out[r] = make([][][]byte, n)
	}
	c.Run(func(r *Rank) {
		for round := 0; round < rounds; round++ {
			send := make([][]byte, n)
			for to := 0; to < n; to++ {
				send[to] = testPayload(r.ID, to, round, n)
			}
			recv, err := r.AllToAllV(send, true, "x", algo)
			if err != nil {
				panic(err)
			}
			out[round][r.ID] = recv
		}
	})
	return out
}

// TestTwoPhaseBitParityWithDirect: across uneven cluster shapes (including
// a ragged last node), repeated rounds of the staged two-phase exchange
// must deliver payloads bit-identical to the direct path.
func TestTwoPhaseBitParityWithDirect(t *testing.T) {
	for _, tc := range []struct{ n, rpn int }{{8, 4}, {6, 4}, {9, 3}, {5, 2}, {4, 1}} {
		t.Run(fmt.Sprintf("n%d-rpn%d", tc.n, tc.rpn), func(t *testing.T) {
			const rounds = 4
			direct := runExchange(tc.n, testHier(tc.rpn), A2ADirect, rounds)
			staged := runExchange(tc.n, testHier(tc.rpn), A2ATwoPhase, rounds)
			for round := 0; round < rounds; round++ {
				for me := 0; me < tc.n; me++ {
					for from := 0; from < tc.n; from++ {
						if !bytes.Equal(direct[round][me][from], staged[round][me][from]) {
							t.Fatalf("round %d: rank %d got %x from %d via two-phase, want %x",
								round, me, staged[round][me][from], from, direct[round][me][from])
						}
					}
				}
			}
		})
	}
}

// TestAlgoInterleavingReusesBoxes: alternating direct and two-phase
// collectives on one cluster must not leak stale buffers between
// algorithms.
func TestAlgoInterleavingReusesBoxes(t *testing.T) {
	n := 8
	c := New(n, testHier(4))
	c.Run(func(r *Rank) {
		for round := 0; round < 6; round++ {
			algo := A2ADirect
			if round%2 == 1 {
				algo = A2ATwoPhase
			}
			send := make([][]byte, n)
			for to := 0; to < n; to++ {
				send[to] = testPayload(r.ID, to, round, n)
			}
			recv, err := r.AllToAllV(send, false, "x", algo)
			if err != nil {
				t.Errorf("round %d rank %d: %v", round, r.ID, err)
				return
			}
			for from := 0; from < n; from++ {
				if want := testPayload(from, r.ID, round, n); !bytes.Equal(recv[from], want) {
					t.Errorf("round %d (algo %d): rank %d got %x from %d, want %x",
						round, algo, r.ID, recv[from], from, want)
					return
				}
			}
		}
	})
}

// TestHierarchicalBucketSplit: a multi-node topology charges the split
// "-intra"/"-inter" buckets and leaves the plain label empty; a flat
// topology keeps the plain label.
func TestHierarchicalBucketSplit(t *testing.T) {
	n := 8
	run := func(net netmodel.Topology, algo A2AAlgo) map[string]time.Duration {
		c := New(n, net)
		c.Run(func(r *Rank) {
			send := make([][]byte, n)
			for to := 0; to < n; to++ {
				send[to] = make([]byte, 1024)
			}
			r.AllToAllV(send, false, "fwd", algo)
		})
		return c.SimTimes()
	}

	hier := run(testHier(4), A2ATwoPhase)
	if hier["fwd-intra"] <= 0 || hier["fwd-inter"] <= 0 {
		t.Fatalf("hierarchical buckets not split: %v", hier)
	}
	if hier["fwd"] != 0 {
		t.Fatalf("hierarchical run charged the flat bucket: %v", hier)
	}
	// The direct algorithm on the same topology also splits attribution.
	direct := run(testHier(4), A2ADirect)
	if direct["fwd-intra"] <= 0 || direct["fwd-inter"] <= 0 {
		t.Fatalf("direct-on-hierarchical buckets not split: %v", direct)
	}
	flat := run(netmodel.Slingshot10(), A2AAuto)
	if flat["fwd"] <= 0 || flat["fwd-intra"] != 0 || flat["fwd-inter"] != 0 {
		t.Fatalf("flat run must charge only the plain bucket: %v", flat)
	}
}

// TestAutoAlgoSelection: A2AAuto stages through leaders exactly when the
// topology spans several nodes — observable through the latency floor,
// which is lower two-phase than direct for tiny payloads.
func TestAutoAlgoSelection(t *testing.T) {
	n := 16
	a2aTotal := func(algo A2AAlgo) time.Duration {
		c := New(n, testHier(4))
		c.Run(func(r *Rank) {
			send := make([][]byte, n)
			for to := 0; to < n; to++ {
				send[to] = []byte{1}
			}
			r.AllToAllV(send, false, "x", algo)
		})
		return c.SimTime("x-intra") + c.SimTime("x-inter")
	}
	auto, direct, twoPhase := a2aTotal(A2AAuto), a2aTotal(A2ADirect), a2aTotal(A2ATwoPhase)
	if auto != twoPhase {
		t.Fatalf("auto (%v) should pick two-phase (%v) on a multi-node topology", auto, twoPhase)
	}
	if auto >= direct {
		t.Fatalf("two-phase (%v) should beat direct (%v) on tiny payloads", auto, direct)
	}
}

// TestTwoPhaseVariableChargesMetadata mirrors the direct-path metadata test
// for the staged algorithm.
func TestTwoPhaseVariableChargesMetadata(t *testing.T) {
	n := 8
	run := func(variable bool) time.Duration {
		c := New(n, testHier(4))
		c.Run(func(r *Rank) {
			send := make([][]byte, n)
			for to := 0; to < n; to++ {
				send[to] = make([]byte, 256)
			}
			r.AllToAllV(send, variable, "x", A2ATwoPhase)
		})
		return c.SimTime("x-intra") + c.SimTime("x-inter")
	}
	if run(true) <= run(false) {
		t.Fatal("variable-size two-phase must cost extra metadata time")
	}
}

// TestSingleRankCollectivesAreFree: a 1-rank cluster performs no exchange
// and charges nothing, under any topology and algorithm.
func TestSingleRankCollectivesAreFree(t *testing.T) {
	for _, net := range []netmodel.Topology{netmodel.Slingshot10(), testHier(4)} {
		c := New(1, net)
		c.Run(func(r *Rank) {
			payload := []byte{1, 2, 3}
			recv, err := r.AllToAllV([][]byte{payload}, true, "x", A2AAuto)
			if err != nil {
				t.Errorf("%s: %v", net.Name(), err)
				return
			}
			if !bytes.Equal(recv[0], payload) {
				t.Errorf("%s: self-delivery broken", net.Name())
			}
		})
		for label, d := range c.SimTimes() {
			if d != 0 {
				t.Fatalf("%s: 1-rank cluster charged %q = %v", net.Name(), label, d)
			}
		}
	}
}

// TestEnvelopeRoundTrip exercises the staged-hop wire format directly.
func TestEnvelopeRoundTrip(t *testing.T) {
	var bundle []byte
	bundle = appendEnvelope(bundle, 3, 11, []byte("hello"))
	bundle = appendEnvelope(bundle, 0, 2, nil)
	bundle = appendEnvelope(bundle, 7, 1, []byte{0xff})
	var seen int
	err := parseEnvelopes(bundle, 16, func(from, to int, payload []byte) error {
		switch seen {
		case 0:
			if from != 3 || to != 11 || string(payload) != "hello" {
				t.Fatalf("envelope 0: %d->%d %q", from, to, payload)
			}
		case 1:
			if from != 0 || to != 2 || len(payload) != 0 {
				t.Fatalf("envelope 1: %d->%d %q", from, to, payload)
			}
		case 2:
			if from != 7 || to != 1 || payload[0] != 0xff {
				t.Fatalf("envelope 2: %d->%d %q", from, to, payload)
			}
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Fatalf("saw %d envelopes", seen)
	}
	if err := parseEnvelopes(bundle[:5], 16, func(int, int, []byte) error { return nil }); err == nil {
		t.Fatal("truncated bundle must fail")
	}
}

// TestParseBundleRejectsImpossibleRoutes: on an 8-rank 2x4 cluster (nodes
// {0..3} and {4..7}, leaders 0 and 4), an envelope whose ids name no rank,
// or whose route the hop it arrived on never carries, is an error before the
// collective indexes anything with its ids.
func TestParseBundleRejectsImpossibleRoutes(t *testing.T) {
	c := New(8, testHier(4))
	type env struct{ from, to int }
	bundle := func(envs ...env) []byte {
		var b []byte
		for _, e := range envs {
			b = appendEnvelope(b, e.from, e.to, []byte{byte(e.from), byte(e.to)})
		}
		return b
	}
	for _, tc := range []struct {
		name     string
		h        hop
		from, me int
		bundle   []byte
		ok       bool
	}{
		{"phase 1 to a leader", hopLocal, 1, 0, bundle(env{1, 0}, env{1, 5}, env{1, 7}), true},
		{"phase 1 to a peer", hopLocal, 1, 2, bundle(env{1, 2}), true},
		{"phase 2", hopLeaders, 4, 0, bundle(env{5, 0}, env{6, 3}, env{4, 1}), true},
		{"phase 3", hopScatter, 0, 2, bundle(env{5, 2}, env{7, 2}), true},
		{"empty bundle", hopScatter, 0, 2, nil, true},

		{"origFrom past the cluster", hopLocal, 1, 0, bundle(env{8, 0}), false},
		{"origTo past the cluster", hopLocal, 1, 0, bundle(env{1, 8}), false},
		{"ids at the top of uint32", hopLocal, 1, 0, bundle(env{1, 0}, env{-1, -1}), false},
		{"phase 1 for the leader's own node", hopLocal, 1, 0, bundle(env{1, 2}), false},
		{"phase 1 forward to a non-leader", hopLocal, 1, 2, bundle(env{1, 5}), false},
		{"phase 1 not from its sender", hopLocal, 1, 0, bundle(env{3, 0}), false},
		{"phase 2 from the wrong node", hopLeaders, 4, 0, bundle(env{1, 2}), false},
		{"phase 2 for another node", hopLeaders, 4, 0, bundle(env{5, 6}), false},
		{"phase 3 for another rank", hopScatter, 0, 2, bundle(env{5, 3}), false},
		{"phase 3 from the own node", hopScatter, 0, 2, bundle(env{1, 2}), false},
		{"truncated header", hopScatter, 0, 2, bundle(env{5, 2})[:7], false},
		{"truncated payload", hopScatter, 0, 2, bundle(env{5, 2})[:13], false},
	} {
		var seen int
		err := c.parseBundle(tc.bundle, tc.h, tc.from, tc.me, func(origFrom, origTo int, payload []byte) error {
			seen++
			if !bytes.Equal(payload, []byte{byte(origFrom), byte(origTo)}) {
				t.Errorf("%s: envelope %d->%d carries %x", tc.name, origFrom, origTo, payload)
			}
			return nil
		})
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted (%d envelopes)", tc.name, seen)
		}
	}
}

// tamperTransport rewrites the nth message its rank sends to peer to.
type tamperTransport struct {
	Transport
	to, nth, sent int
	fn            func([]byte) []byte
}

func (t *tamperTransport) Send(to int, buf []byte) error {
	if to == t.to {
		if t.sent == t.nth {
			buf = t.fn(bytes.Clone(buf))
		}
		t.sent++
	}
	return t.Transport.Send(to, buf)
}

// TestTwoPhaseDamagedBundleErrors: rank 1's phase-1 bundle to its leader
// (its second message to rank 0, after the size row) is damaged in transit.
// The leader must return an error — never panic, and never deliver a short
// receive table — and, once it closes its endpoint, every rank returns.
func TestTwoPhaseDamagedBundleErrors(t *testing.T) {
	const n = 8
	put := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[off:], v)
			return b
		}
	}
	for _, tc := range []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"origFrom past the cluster", put(0, n)},
		{"origTo past the cluster", put(4, n)},
		{"direct payload rerouted to the leader's node", put(4, 2)},
		{"every envelope twice", func(b []byte) []byte { return append(b, b...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps := NewInprocFabric(n)
			eps[1] = &tamperTransport{Transport: eps[1], to: 0, nth: 1, fn: tc.fn}
			c, err := newCluster(eps, testHier(4))
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, n)
			c.Run(func(r *Rank) {
				send := make([][]byte, n)
				for to := range send {
					send[to] = testPayload(r.ID, to, 0, n)
				}
				_, errs[r.ID] = r.AllToAllV(send, true, "x", A2ATwoPhase)
				if errs[r.ID] != nil {
					r.tr.Close()
				}
			})
			if errs[0] == nil {
				t.Fatal("the leader accepted a damaged bundle")
			}
			t.Logf("leader: %v", errs[0])
		})
	}
}

// recordingTransport keeps a copy of every message its rank sends.
type recordingTransport struct {
	Transport
	mu   *sync.Mutex
	msgs *[][]byte
}

func (t recordingTransport) Send(to int, buf []byte) error {
	t.mu.Lock()
	*t.msgs = append(*t.msgs, bytes.Clone(buf))
	t.mu.Unlock()
	return t.Transport.Send(to, buf)
}

// FuzzParseEnvelopes feeds arbitrary bytes to the bundle parser of every
// hop, seeded with the messages a real 2x4 two-phase exchange sends. It
// must not panic, and whatever it hands on must name ranks of the cluster
// on a route the hop carries, with payloads inside the bundle.
func FuzzParseEnvelopes(f *testing.F) {
	const n = 8
	var mu sync.Mutex
	var msgs [][]byte
	eps := NewInprocFabric(n)
	for i, ep := range eps {
		eps[i] = recordingTransport{Transport: ep, mu: &mu, msgs: &msgs}
	}
	c, err := newCluster(eps, testHier(4))
	if err != nil {
		f.Fatal(err)
	}
	c.Run(func(r *Rank) {
		send := make([][]byte, n)
		for to := range send {
			send[to] = testPayload(r.ID, to, 1, n)
		}
		if _, err := r.AllToAllV(send, true, "x", A2ATwoPhase); err != nil {
			panic(err)
		}
	})
	for _, m := range msgs {
		f.Add(m)
	}
	// The (from, me) pairs each hop can see on this cluster.
	routes := []struct {
		h        hop
		from, me int
	}{{hopLocal, 1, 0}, {hopLocal, 0, 2}, {hopLocal, 5, 4}, {hopLeaders, 4, 0}, {hopLeaders, 0, 4}, {hopScatter, 0, 3}, {hopScatter, 4, 6}}
	f.Fuzz(func(t *testing.T, bundle []byte) {
		for _, rt := range routes {
			payloadBytes := 0
			c.parseBundle(bundle, rt.h, rt.from, rt.me, func(origFrom, origTo int, payload []byte) error {
				if origFrom < 0 || origFrom >= n || origTo < 0 || origTo >= n {
					t.Fatalf("hop %d handed on envelope %d->%d", rt.h, origFrom, origTo)
				}
				if err := c.checkRoute(rt.h, rt.from, rt.me, origFrom, origTo); err != nil {
					t.Fatal(err)
				}
				payloadBytes += envelopeBytes(payload)
				return nil
			})
			if payloadBytes > len(bundle) {
				t.Fatalf("hop %d handed on %d bytes of envelopes from a %d-byte bundle", rt.h, payloadBytes, len(bundle))
			}
		}
	})
}

// TestTwoPhaseAllocsStageOnce pins the staging allocation of the two-phase
// all-to-all: every bundle is allocated once, at its final size, so the
// bytes one collective allocates stay within 10% of the envelope bytes it
// stages (with bundles grown by append they were 2-3x). Payloads are
// ragged, 48-80 KB, on an 8-rank 2x4 in-process cluster.
func TestTwoPhaseAllocsStageOnce(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pins are meaningless under the race detector (instrumented allocations, dropped pools)")
	}
	const n, rounds = 8, 4
	c := New(n, testHier(4))
	sends := make([][][]byte, n)
	staged := 0
	for from := range sends {
		sends[from] = make([][]byte, n)
		for to := range sends[from] {
			p := make([]byte, (48+(from*7+to*13)%32)<<10)
			sends[from][to] = p
			switch e := envelopeBytes(p); {
			case from == to:
			case c.nodeOf[from] == c.nodeOf[to]:
				staged += e // phase-1 bundle
			default:
				staged += e // crossByNode at the source leader
				if c.leaders[c.nodeOf[from]] != from {
					staged += e // phase-1 bundle to that leader
				}
				if c.leaders[c.nodeOf[to]] != to {
					staged += e // scatter bundle at the destination leader
				}
			}
		}
	}
	exchange := func(rounds int) {
		c.Run(func(r *Rank) {
			for range rounds {
				if _, err := r.AllToAllV(sends[r.ID], true, "x", A2ATwoPhase); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	exchange(1) // warm the goroutines and the fabric
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exchange(rounds)
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	if perCall > 1.1*float64(staged) {
		t.Fatalf("one two-phase all-to-all allocates %.0f bytes for %d staged envelope bytes (%.2fx, bound 1.1x)", perCall, staged, perCall/float64(staged))
	}
	t.Logf("one two-phase all-to-all allocates %.0f bytes for %d staged envelope bytes (%.3fx)", perCall, staged, perCall/float64(staged))
}
