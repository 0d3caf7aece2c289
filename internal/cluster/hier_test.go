package cluster

import (
	"bytes"
	"testing"
	"time"

	"dlrmcomp/internal/netmodel"
)

func testHier(rpn int) netmodel.Hierarchical { return netmodel.PaperHierarchical(rpn) }

// testPayload builds a distinct payload per (from, to, round); size varies
// with the pair, including empty payloads.
func testPayload(from, to, round int) []byte {
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

// TestAllToAllRaggedRoundsOnHier: repeated all-to-alls of ragged and empty
// payloads on a multi-node cluster deliver every payload to its
// destination, with no stale buffer carried from one round to the next.
func TestAllToAllRaggedRoundsOnHier(t *testing.T) {
	n := 8
	c := New(n, testHier(4))
	c.Run(func(r *Rank) {
		for round := 0; round < 6; round++ {
			send := make([][]byte, n)
			for to := 0; to < n; to++ {
				send[to] = testPayload(r.ID, to, round)
			}
			recv, err := r.AllToAll(send, round%2 == 1, "x")
			if err != nil {
				t.Errorf("round %d rank %d: %v", round, r.ID, err)
				return
			}
			for from := 0; from < n; from++ {
				if want := testPayload(from, r.ID, round); !bytes.Equal(recv[from], want) {
					t.Errorf("round %d: rank %d got %x from %d, want %x", round, r.ID, recv[from], from, want)
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
	run := func(net netmodel.Topology) map[string]time.Duration {
		c := New(n, net)
		c.Run(func(r *Rank) {
			send := make([][]byte, n)
			for to := 0; to < n; to++ {
				send[to] = make([]byte, 1024)
			}
			r.AllToAll(send, false, "fwd")
		})
		return c.SimTimes()
	}

	hier := run(testHier(4))
	if hier["fwd-intra"] <= 0 || hier["fwd-inter"] <= 0 {
		t.Fatalf("hierarchical buckets not split: %v", hier)
	}
	if hier["fwd"] != 0 {
		t.Fatalf("hierarchical run charged the flat bucket: %v", hier)
	}
	flat := run(netmodel.Slingshot10())
	if flat["fwd"] <= 0 || flat["fwd-intra"] != 0 || flat["fwd-inter"] != 0 {
		t.Fatalf("flat run must charge only the plain bucket: %v", flat)
	}
}

// TestAutoAlgoSelection pins the price of an all-to-all: on a multi-node
// topology its intra and inter buckets equal TwoPhaseAllToAllCost of the
// payload-size matrix, plus MetadataCost when the exchange is variable; on
// a single node, where the two-phase model has nothing to stage, the plain
// bucket holds the direct exchange's AllToAllCost.
func TestAutoAlgoSelection(t *testing.T) {
	n := 8
	sizes := make([][]int64, n)
	for from := range sizes {
		sizes[from] = make([]int64, n)
		for to := range sizes[from] {
			sizes[from][to] = int64(len(testPayload(from, to, 1)))
		}
	}
	run := func(net netmodel.Topology, variable bool) *Cluster {
		c := New(n, net)
		c.Run(func(r *Rank) {
			send := make([][]byte, n)
			for to := range send {
				send[to] = testPayload(r.ID, to, 1)
			}
			if _, err := r.AllToAll(send, variable, "x"); err != nil {
				t.Errorf("rank %d: %v", r.ID, err)
			}
		})
		return c
	}
	for _, variable := range []bool{false, true} {
		net := testHier(4)
		want := net.TwoPhaseAllToAllCost(sizes)
		if variable {
			want = want.Add(net.MetadataCost(n, MetadataBytesPerPair))
		}
		c := run(net, variable)
		if got := (netmodel.LinkCost{Intra: c.SimTime("x-intra"), Inter: c.SimTime("x-inter")}); got != want {
			t.Errorf("variable=%v: charged %+v, want the two-phase price %+v", variable, got, want)
		}

		single := testHier(n)
		want = single.AllToAllCost(sizes)
		if variable {
			want = want.Add(single.MetadataCost(n, MetadataBytesPerPair))
		}
		if got := run(single, variable).SimTime("x"); got != want.Total() {
			t.Errorf("variable=%v single node: charged %v, want the direct price %v", variable, got, want.Total())
		}
	}
}

// TestTwoPhaseVariableChargesMetadata mirrors the flat metadata test on a
// multi-node topology.
func TestTwoPhaseVariableChargesMetadata(t *testing.T) {
	n := 8
	run := func(variable bool) time.Duration {
		c := New(n, testHier(4))
		c.Run(func(r *Rank) {
			send := make([][]byte, n)
			for to := 0; to < n; to++ {
				send[to] = make([]byte, 256)
			}
			r.AllToAll(send, variable, "x")
		})
		return c.SimTime("x-intra") + c.SimTime("x-inter")
	}
	if run(true) <= run(false) {
		t.Fatal("variable-size two-phase must cost extra metadata time")
	}
}

// TestSingleRankCollectivesAreFree: a 1-rank cluster performs no exchange
// and charges nothing, under any topology.
func TestSingleRankCollectivesAreFree(t *testing.T) {
	for _, net := range []netmodel.Topology{netmodel.Slingshot10(), testHier(4)} {
		c := New(1, net)
		c.Run(func(r *Rank) {
			payload := []byte{1, 2, 3}
			recv, err := r.AllToAll([][]byte{payload}, true, "x")
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
