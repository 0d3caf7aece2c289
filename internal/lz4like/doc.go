// Package lz4like provides the lossless baseline compressors the paper
// compares against: a from-scratch byte-level LZSS with the classic small
// (4 KB) window and variable-length matches — the algorithmic family of
// nvCOMP-LZ4 — and a Deflate codec built on the standard library, standing
// in for nvCOMP-Deflate. Both operate on the raw float32 bytes of the batch,
// which is exactly why they achieve low ratios on embedding data: the
// mantissa bytes are high-entropy and repeats rarely align at byte level
// unless whole vectors recur close together.
//
// Layer: baseline codecs implementing internal/codec.Codec; priced by
// netmodel.PaperCodecRates under "lz4-like" and "deflate". The vector-
// granular ablation (bench_test.go) measures the same batches against
// internal/vlz to quantify the paper's fixed-pattern-length advantage.
//
// Key types: LZSSCodec and DeflateCodec (both stateless values — safe to
// share across rank goroutines; LZSSCodec draws its per-call scratch from a
// sync.Pool, so its steady state does not allocate).
package lz4like
