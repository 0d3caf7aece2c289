package netmodel

import (
	"fmt"
	"time"
)

// Network is an α-β interconnect model.
type Network struct {
	// AllToAllBandwidth is the effective per-rank all-to-all bandwidth in
	// bytes/s (the paper quotes 4 GB/s for its cluster).
	AllToAllBandwidth float64
	// AllReduceBandwidth is the effective ring-allreduce bandwidth in
	// bytes/s.
	AllReduceBandwidth float64
	// Latency is the per-message software+wire latency.
	Latency time.Duration
}

// Slingshot10 returns the calibrated model of the paper's cluster: 4 GB/s
// effective all-to-all throughput (§IV-C) and microsecond-scale latency.
func Slingshot10() Network {
	return Network{
		AllToAllBandwidth:  4e9,
		AllReduceBandwidth: 60e9, // hierarchical NVLink+ring for dense grads
		Latency:            2 * time.Microsecond,
	}
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// AllToAllTime models one all-to-all step: every rank sends sendBytes[r]
// in total (across all peers). The step completes when the busiest rank
// finishes. Peers are posted in parallel (as NCCL does), so the latency
// floor grows logarithmically with the rank count rather than linearly:
// (1 + ceil(log2 ranks)) × Latency on top of the wire time.
//
// ranks <= 1 returns 0 by design, not omission: a single rank has no peers,
// so the collective is a no-op — the degenerate case the 1-rank parity
// baselines rely on. sendBytes is not inspected (it may be nil).
func (n Network) AllToAllTime(ranks int, sendBytes []int64) time.Duration {
	if ranks <= 1 {
		return 0
	}
	if len(sendBytes) != ranks {
		panic(fmt.Sprintf("netmodel: sendBytes has %d entries for %d ranks", len(sendBytes), ranks))
	}
	var maxBytes int64
	for _, b := range sendBytes {
		if b > maxBytes {
			maxBytes = b
		}
	}
	wire := time.Duration(float64(maxBytes) / n.AllToAllBandwidth * float64(time.Second))
	return wire + time.Duration(1+log2ceil(ranks))*n.Latency
}

// MetadataTime models the size-exchange preceding a variable-size
// all-to-all: bytesPerPair bytes per peer, posted in parallel and
// overlapped with the tail of compression, so it costs one latency plus
// its wire time. ranks <= 1 returns 0: with no peers there are no sizes to
// exchange.
func (n Network) MetadataTime(ranks int, bytesPerPair int64) time.Duration {
	if ranks <= 1 {
		return 0
	}
	wire := time.Duration(float64(bytesPerPair*int64(ranks-1)) / n.AllToAllBandwidth * float64(time.Second))
	return wire + n.Latency
}

// AllReduceTime models a hierarchical (tree/ring hybrid) allreduce of bytes
// payload per rank: 2(ranks-1)/ranks × bytes of wire traffic plus a
// 2·ceil(log2 ranks) latency floor. ranks <= 1 returns 0: a lone rank
// already holds the global sum.
func (n Network) AllReduceTime(ranks int, bytes int64) time.Duration {
	if ranks <= 1 {
		return 0
	}
	factor := 2 * float64(ranks-1) / float64(ranks)
	wire := time.Duration(factor * float64(bytes) / n.AllReduceBandwidth * float64(time.Second))
	return wire + time.Duration(2*log2ceil(ranks))*n.Latency
}

// Device models per-GPU compute rates.
type Device struct {
	// FLOPS is sustained dense math throughput (FLOP/s).
	FLOPS float64
	// MemBandwidth is HBM bandwidth (bytes/s), which bounds embedding
	// lookups.
	MemBandwidth float64
}

// A100 returns sustained (not peak) rates for the paper's A100-40GB GPUs.
func A100() Device {
	return Device{
		FLOPS:        100e12, // sustained TF32 tensor-core rate
		MemBandwidth: 1.3e12,
	}
}

// PaperDevice returns the sustained MLP rate representative of DLRM-sized
// layers on the paper's A100s: small per-GPU batches never reach peak
// tensor throughput, so the timing experiments calibrate against this
// rather than A100()'s dense-math ceiling.
func PaperDevice() Device {
	return Device{FLOPS: 3e12, MemBandwidth: 1.3e12}
}

// MLPTime models a dense forward or backward pass of the given FLOP count.
// Positive work is never rounded below 1ns so accounting stays monotone at
// toy scales.
func (d Device) MLPTime(flops float64) time.Duration {
	return atLeast1ns(flops, time.Duration(flops/d.FLOPS*float64(time.Second)))
}

// LookupTime models embedding-bag gathers of the given byte volume.
func (d Device) LookupTime(bytes int64) time.Duration {
	return atLeast1ns(float64(bytes), time.Duration(float64(bytes)/d.MemBandwidth*float64(time.Second)))
}

func atLeast1ns(work float64, d time.Duration) time.Duration {
	if work > 0 && d <= 0 {
		return time.Nanosecond
	}
	return d
}

// CodecRates are (de)compression throughputs in bytes/s of uncompressed
// payload processed.
type CodecRates struct {
	Compress   float64
	Decompress float64
}

// PaperCodecRates returns the GPU throughputs the paper reports (§IV-C),
// used for calibrated end-to-end projections. Keys match codec names.
func PaperCodecRates() map[string]CodecRates {
	return map[string]CodecRates{
		"ours-vector":  {Compress: 40.5e9, Decompress: 205.4e9},
		"ours-huffman": {Compress: 78.4e9, Decompress: 38.9e9},
		// The hybrid pays the cheaper of the two paths per table; using the
		// vector rates is conservative for compression and optimistic for
		// decompression, matching the paper's aggregate numbers.
		"ours-hybrid": {Compress: 52e9, Decompress: 96e9},
		"lz4-like":    {Compress: 35e9, Decompress: 120e9}, // nvCOMP-LZ4 class
		"deflate":     {Compress: 30.1e9, Decompress: 109.7e9},
		"fz-gpu-like": {Compress: 136e9, Decompress: 136e9},
		"cusz-like":   {Compress: 90e9, Decompress: 60e9},
		"fp16":        {Compress: 600e9, Decompress: 600e9}, // a cast kernel
		"fp8-e4m3":    {Compress: 600e9, Decompress: 600e9},
		"fp8-e5m2":    {Compress: 600e9, Decompress: 600e9},
	}
}

// CodecTime models compressing or decompressing bytes at rate.
func CodecTime(bytes int64, rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return atLeast1ns(float64(bytes), time.Duration(float64(bytes)/rate*float64(time.Second)))
}

// KernelLaunchOverhead is the per-kernel launch cost used by the buffer
// optimization study (§III-E): small chunks are dominated by launches.
const KernelLaunchOverhead = 10 * time.Microsecond
