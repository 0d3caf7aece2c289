// Package huffman implements the optimized entropy encoder of the paper's
// hybrid compressor (§III-D): a canonical Huffman coder over quantization-bin
// symbols. Unlike prediction-based scientific compressors, no predictor is
// applied first — the paper's observation ❶ (false prediction) shows Lorenzo
// prediction *raises* the entropy of embedding batches, so the coder consumes
// raw bin symbols.
//
// The encoded frame is self-contained: it carries the canonical code-length
// table followed by the bitstream. Degenerate inputs (empty, single distinct
// symbol) and incompressible inputs (raw fallback) are handled explicitly.
//
// Layer: the entropy half of internal/hybrid (the other half is the
// vector-based LZ in internal/vlz); also the residual coder inside
// internal/cuszlike. Pure compute — its cost enters the sim clock only
// through the calibrated codec rates of the codec that wraps it.
//
// Key API: Encoder.AppendEncode (AppendEncodeMax when the caller already
// knows the largest symbol) and Decoder.DecodeInto over []uint32 symbols
// (zigzagged quantization bins), both with reusable workspaces — zero
// steady-state allocation, one instance per goroutine; SymbolCount sizes a
// DecodeInto destination without decoding; BitWriter/BitReader are the bit
// I/O underneath. huffman.go holds the frame format, append.go the coder,
// and oracle_test.go the original allocating Encode/Decode that the parity
// tests hold the coder to byte for byte.
package huffman
