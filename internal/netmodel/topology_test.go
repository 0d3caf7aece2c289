package netmodel

import (
	"testing"
	"time"
)

func testHier() Hierarchical { return PaperHierarchical(4) }

// uniformMatrix builds a pairwise matrix where every rank sends b bytes to
// every peer.
func uniformMatrix(ranks int, b int64) [][]int64 {
	m := make([][]int64, ranks)
	for from := range m {
		m[from] = make([]int64, ranks)
		for to := range m[from] {
			if to != from {
				m[from][to] = b
			}
		}
	}
	return m
}

func TestHierarchicalNodeLayout(t *testing.T) {
	h := testHier()
	for _, c := range []struct{ rank, node int }{{0, 0}, {3, 0}, {4, 1}, {7, 1}, {31, 7}} {
		if got := h.NodeOf(c.rank); got != c.node {
			t.Errorf("NodeOf(%d) = %d, want %d", c.rank, got, c.node)
		}
	}
	for _, c := range []struct{ ranks, nodes int }{{1, 1}, {4, 1}, {5, 2}, {32, 8}, {33, 9}, {128, 32}} {
		if got := h.Nodes(c.ranks); got != c.nodes {
			t.Errorf("Nodes(%d) = %d, want %d", c.ranks, got, c.nodes)
		}
	}
}

func TestFlatTopologyMatchesNetwork(t *testing.T) {
	n := Slingshot10()
	m := uniformMatrix(8, 1<<20)
	cost := n.AllToAllCost(m)
	if cost.Intra != 0 {
		t.Fatal("flat topology must attribute nothing to intra")
	}
	if want := n.AllToAllTime(8, uniformSends(8, 7<<20)); cost.Inter != want {
		t.Fatalf("AllToAllCost = %v, want %v", cost.Inter, want)
	}
	if n.TwoPhaseAllToAllCost(m) != cost {
		t.Fatal("flat two-phase must degenerate to direct")
	}
	if md := n.MetadataCost(8, 8); md.Inter != n.MetadataTime(8, 8) || md.Intra != 0 {
		t.Fatalf("MetadataCost = %+v", md)
	}
}

func TestHierarchicalDegenerate(t *testing.T) {
	h := testHier()
	if c := h.AllToAllCost(nil); c != (LinkCost{}) {
		t.Fatalf("empty matrix costs %+v", c)
	}
	if c := h.AllToAllCost(uniformMatrix(1, 1<<30)); c != (LinkCost{}) {
		t.Fatalf("1-rank matrix costs %+v", c)
	}
	if c := h.TwoPhaseAllToAllCost(uniformMatrix(1, 1<<30)); c != (LinkCost{}) {
		t.Fatalf("1-rank two-phase costs %+v", c)
	}
	if c := h.MetadataCost(1, 8); c != (LinkCost{}) {
		t.Fatalf("1-rank metadata costs %+v", c)
	}
	if h.AllReduceTime(1, 1<<30) != 0 {
		t.Fatal("1-rank allreduce must be free")
	}
}

// TestHierarchicalSingleNodeIsIntraOnly: 4 ranks on one node never touch
// the NIC.
func TestHierarchicalSingleNodeIsIntraOnly(t *testing.T) {
	h := testHier()
	cost := h.AllToAllCost(uniformMatrix(4, 1<<20))
	if cost.Inter != 0 {
		t.Fatalf("single-node cluster charged inter %v", cost.Inter)
	}
	if cost.Intra <= 0 {
		t.Fatal("single-node cluster must charge intra time")
	}
	if tp := h.TwoPhaseAllToAllCost(uniformMatrix(4, 1<<20)); tp != cost {
		t.Fatalf("single-node two-phase %+v, want direct fallback %+v", tp, cost)
	}
}

// TestHierarchicalSplitsLinks: with multiple nodes, both link classes are
// charged, and the intra link is far cheaper per byte.
func TestHierarchicalSplitsLinks(t *testing.T) {
	h := testHier()
	cost := h.AllToAllCost(uniformMatrix(32, 1<<20))
	if cost.Intra <= 0 || cost.Inter <= 0 {
		t.Fatalf("expected both links charged, got %+v", cost)
	}
	if cost.Intra >= cost.Inter {
		t.Fatalf("intra (%v) should be much cheaper than inter (%v)", cost.Intra, cost.Inter)
	}
	md := h.MetadataCost(32, 8)
	if md.Intra <= 0 || md.Inter <= 0 {
		t.Fatalf("metadata should touch both links, got %+v", md)
	}
}

// TestTwoPhaseLatencyAdvantage: with tiny (compressed-scale) payloads, the
// two-phase algorithm beats the direct exchange because the slow-link
// latency floor shrinks from log2(ranks) to log2(nodes).
func TestTwoPhaseLatencyAdvantage(t *testing.T) {
	h := testHier()
	m := uniformMatrix(128, 64) // 64 B per pair: latency-bound
	direct := h.AllToAllCost(m).Total()
	twoPhase := h.TwoPhaseAllToAllCost(m).Total()
	if twoPhase >= direct {
		t.Fatalf("two-phase (%v) should beat direct (%v) on tiny payloads", twoPhase, direct)
	}
}

// TestTwoPhaseStagingCost: with huge payloads the staging traffic of
// phases 1/3 makes two-phase pay more intra time than direct, while the
// NIC (inter) wire term stays identical — the bandwidth through the slow
// link does not depend on the algorithm.
func TestTwoPhaseStagingCost(t *testing.T) {
	h := testHier()
	m := uniformMatrix(32, 1<<24)
	direct := h.AllToAllCost(m)
	twoPhase := h.TwoPhaseAllToAllCost(m)
	if twoPhase.Intra <= direct.Intra {
		t.Fatalf("staging must cost extra intra time: two-phase %v vs direct %v", twoPhase.Intra, direct.Intra)
	}
	dWire := direct.Inter - time.Duration(1+log2ceil(32))*h.Inter.Latency
	tWire := twoPhase.Inter - time.Duration(1+log2ceil(8))*h.Inter.Latency
	if dWire != tWire {
		t.Fatalf("inter wire time must not depend on the algorithm: %v vs %v", dWire, tWire)
	}
}

// TestHierarchicalCalibration: per-rank effective inter bandwidth of the
// paper model matches the flat Slingshot10 calibration, so flat-vs-
// hierarchical sweeps compare like for like.
func TestHierarchicalCalibration(t *testing.T) {
	h := PaperHierarchical(4)
	if h.Inter.Bandwidth != 16e9 {
		t.Fatalf("NIC bandwidth %v, want 4 ranks x 4 GB/s", h.Inter.Bandwidth)
	}
	if PaperHierarchical(0).RanksPerNode != 4 {
		t.Fatal("default ranks-per-node should be the testbed's 4")
	}
	// 8 nodes x 4 ranks, uniform load: node aggregate = 4x per-rank send;
	// wire time through the NIC equals the flat per-rank model's.
	ranks, perPair := 32, int64(1<<20)
	perRank := perPair * int64(ranks-1)
	flatWire := time.Duration(float64(perRank) / 4e9 * float64(time.Second))
	cost := h.AllToAllCost(uniformMatrix(ranks, perPair))
	// Remove the latency floor; cross-node fraction is 28/31 of the send.
	interWire := cost.Inter - time.Duration(1+log2ceil(ranks))*h.Inter.Latency
	wantWire := time.Duration(float64(flatWire) * 28.0 / 31.0)
	if diff := interWire - wantWire; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("inter wire %v, want ≈ %v", interWire, wantWire)
	}
}

func TestHierarchicalAllReduce(t *testing.T) {
	h := Hierarchical{RanksPerNode: 4, Inter: Link{Latency: 0}, AllReduceBandwidth: 1e9}
	if got := h.AllReduceTime(2, 1e9); got != time.Second {
		t.Fatalf("allreduce = %v, want 1s", got)
	}
	if h.AllReduceTime(32, 1e9) <= h.AllReduceTime(2, 1e9) {
		t.Fatal("allreduce cost must grow with rank count")
	}
}

func TestHierarchicalPanicsOnRaggedMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	testHier().AllToAllCost([][]int64{{0, 1}, {1}})
}
