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
// steady-state allocation, one instance per goroutine. The encoder is two
// halves, and AppendEncodeMax is the two in sequence: Plan counts the
// symbols, builds the code and returns the exact frame length from
// arithmetic alone (so a caller choosing between coders pays for no bits
// it will discard); AppendPlanned emits that frame, code bits going into
// the pre-grown destination a machine word at a time. The decoder reads
// codes through a prefix table (one lookup for codes up to 11 bits, the
// canonical first-code walk beyond) and rejects a bitstream that ends
// before its symbols do. SymbolCount sizes a DecodeInto destination
// without decoding; BitWriter/BitReader are the bit I/O of the cold paths
// (raw frames, alphabets of 2¹⁶ symbols and up). huffman.go holds the
// frame format, append.go the coder, and oracle_test.go the original
// allocating Encode that the parity tests hold the coder to byte for byte.
package huffman
