package netmodel

import (
	"testing"
	"time"
)

// uniformSends is the per-rank send volume of an exchange in which every
// rank sends b bytes.
func uniformSends(ranks int, b int64) []int64 {
	s := make([]int64, ranks)
	for i := range s {
		s[i] = b
	}
	return s
}

func TestAllToAllTimeScalesWithBytes(t *testing.T) {
	n := Slingshot10()
	t1 := n.AllToAllTime(32, uniformSends(32, 1<<20))
	t2 := n.AllToAllTime(32, uniformSends(32, 1<<24))
	if t2 <= t1 {
		t.Fatal("more bytes must take longer")
	}
	// 16 MB at 4 GB/s ≈ 4 ms wire time.
	want := 4 * time.Millisecond
	if t2 < want || t2 > want+time.Millisecond {
		t.Fatalf("16MB all-to-all = %v, want ≈ %v", t2, want)
	}
}

func TestAllToAllBottleneckRank(t *testing.T) {
	n := Network{AllToAllBandwidth: 1e9, Latency: 0}
	uneven := n.AllToAllTime(4, []int64{100, 100, 100, 1e9})
	even := n.AllToAllTime(4, []int64{1e9, 1e9, 1e9, 1e9})
	if uneven != even {
		t.Fatal("all-to-all completes with the busiest rank")
	}
}

// TestDegenerateRankCounts pins the documented contract that every
// collective is a free no-op for ranks <= 1, across all primitives, with
// sendBytes deliberately nil where the signature allows it.
func TestDegenerateRankCounts(t *testing.T) {
	n := Slingshot10()
	for _, ranks := range []int{0, 1} {
		if got := n.AllToAllTime(ranks, nil); got != 0 {
			t.Fatalf("AllToAllTime(%d) = %v, want 0", ranks, got)
		}
		if got := n.MetadataTime(ranks, 8); got != 0 {
			t.Fatalf("MetadataTime(%d) = %v, want 0", ranks, got)
		}
		if got := n.AllReduceTime(ranks, 1<<30); got != 0 {
			t.Fatalf("AllReduceTime(%d) = %v, want 0", ranks, got)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {7, 3}, {8, 3},
		{9, 4}, {16, 4}, {17, 5}, {32, 5}, {33, 6}, {128, 7}, {129, 8},
	}
	for _, c := range cases {
		if got := log2ceil(c.n); got != c.want {
			t.Errorf("log2ceil(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestLatencyFloorTable pins the all-to-all latency floor: with zero-byte
// payloads the cost is exactly (1 + ceil(log2 ranks)) latencies, the
// parallel-posting model NCCL-style collectives follow.
func TestLatencyFloorTable(t *testing.T) {
	n := Network{AllToAllBandwidth: 1e9, AllReduceBandwidth: 1e9, Latency: time.Microsecond}
	for _, c := range []struct {
		ranks int
		want  time.Duration
	}{
		{2, 2 * time.Microsecond},
		{3, 3 * time.Microsecond},
		{4, 3 * time.Microsecond},
		{8, 4 * time.Microsecond},
		{9, 5 * time.Microsecond},
		{32, 6 * time.Microsecond},
		{128, 8 * time.Microsecond},
	} {
		if got := n.AllToAllTime(c.ranks, uniformSends(c.ranks, 0)); got != c.want {
			t.Errorf("latency floor at %d ranks = %v, want %v", c.ranks, got, c.want)
		}
	}
}

// TestBusiestRankTable pins the busiest-rank completion semantics: the step
// costs the maximum per-rank send volume, regardless of how the remaining
// volume is distributed.
func TestBusiestRankTable(t *testing.T) {
	n := Network{AllToAllBandwidth: 1e9, Latency: 0}
	for _, c := range []struct {
		name  string
		sends []int64
		want  time.Duration
	}{
		{"uniform", []int64{1e9, 1e9, 1e9, 1e9}, time.Second},
		{"one-hot", []int64{0, 0, 0, 1e9}, time.Second},
		{"skewed", []int64{1, 2e9, 3, 4}, 2 * time.Second},
		{"zero", []int64{0, 0, 0, 0}, 0},
	} {
		if got := n.AllToAllTime(len(c.sends), c.sends); got != c.want {
			t.Errorf("%s: AllToAllTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAllToAllPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Slingshot10().AllToAllTime(4, []int64{1, 2})
}

func TestAllReduceTime(t *testing.T) {
	n := Network{AllReduceBandwidth: 1e9, Latency: 0}
	// 2*(N-1)/N * bytes / BW; N=2 -> 1x bytes (plus 2 log2-latency, 0 here).
	got := n.AllReduceTime(2, 1e9)
	if got != time.Second+2*n.Latency {
		t.Fatalf("allreduce = %v, want 1s", got)
	}
	if n.AllReduceTime(1, 1e9) != 0 {
		t.Fatal("single rank allreduce is free")
	}
	// Larger clusters approach 2x bytes.
	if n.AllReduceTime(32, 1e9) <= got {
		t.Fatal("allreduce cost grows with rank count")
	}
}

func TestLatencyDominatesSmallMessages(t *testing.T) {
	n := Slingshot10()
	tiny := n.AllToAllTime(32, uniformSends(32, 8))
	// Parallel posting: floor = (1 + ceil(log2 32)) latencies.
	if tiny < 6*n.Latency {
		t.Fatalf("latency floor missing: %v", tiny)
	}
	if tiny > 10*n.Latency {
		t.Fatalf("latency floor should be logarithmic, got %v", tiny)
	}
}

func TestMetadataTime(t *testing.T) {
	n := Slingshot10()
	if n.MetadataTime(1, 8) != 0 {
		t.Fatal("single rank needs no metadata")
	}
	if n.MetadataTime(32, 8) < n.Latency {
		t.Fatal("metadata costs at least one latency")
	}
}

func TestDeviceTimes(t *testing.T) {
	d := A100()
	if d.MLPTime(100e12) != time.Second {
		t.Fatalf("MLPTime = %v", d.MLPTime(100e12))
	}
	if d.LookupTime(1.3e12) != time.Second {
		t.Fatalf("LookupTime = %v", d.LookupTime(1.3e12))
	}
}

func TestCodecTime(t *testing.T) {
	if CodecTime(40e9, 40e9) != time.Second {
		t.Fatal("CodecTime wrong")
	}
	if CodecTime(100, 0) != 0 {
		t.Fatal("zero rate must be free (treated as no codec)")
	}
}

func TestPaperCodecRatesComplete(t *testing.T) {
	rates := PaperCodecRates()
	for _, name := range []string{"ours-vector", "ours-huffman", "ours-hybrid",
		"lz4-like", "deflate", "fz-gpu-like", "cusz-like", "fp16", "fp8-e4m3"} {
		r, ok := rates[name]
		if !ok {
			t.Fatalf("missing rates for %s", name)
		}
		if r.Compress <= 0 || r.Decompress <= 0 {
			t.Fatalf("non-positive rates for %s", name)
		}
	}
	// The paper's headline numbers survive verbatim.
	if rates["ours-vector"].Compress != 40.5e9 || rates["ours-vector"].Decompress != 205.4e9 {
		t.Fatal("ours-vector rates drifted from the paper")
	}
}
