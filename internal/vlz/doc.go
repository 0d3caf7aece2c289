// Package vlz implements the paper's vector-based LZ encoder (§III-D,
// §III-E): an LZ-family compressor specialized for batches of embedding
// vectors. Instead of scanning for repeating byte patterns of arbitrary
// length, it exploits two DLRM-specific facts:
//
//   - the repeating unit is always exactly one embedding vector (the "fixed
//     pattern length" optimization), so matching is whole-row-at-a-time and
//     a failed first-element comparison skips the entire row;
//   - unbalanced (Zipf-distributed) queries make identical rows recur within
//     a batch, so a row-granular sliding window of the most recent rows
//     (the "extended window size" optimization — 32 to 255 rows, i.e. far
//     wider in bytes than a classic 4 KB LZ window) captures most repeats.
//
// The encoder consumes quantization-bin rows ([]int32 codes, row length =
// embedding dim) and emits a token stream: match tokens carry a back-offset
// in rows (with consecutive matches at the same offset run-length coded, so
// a batch of identical vectors costs a handful of bytes); literal tokens
// carry zigzag-varint coded bins.
//
// Layer: the dictionary half of internal/hybrid, downstream of
// internal/quant. Pure compute; its cost enters end-to-end projections
// through the wrapping codec's calibrated rates ("ours-vector").
//
// Key API: Encoder (New(window)) with AppendEncode — and AppendEncodeWithin,
// the same body under a byte budget, which stops the moment the frame has
// outgrown a competing frame's length — Decoder.DecodeInto, RowCount (sizes
// a DecodeInto destination without decoding), EncodeStats (match/literal
// counts for Fig. 13), and DefaultWindow — the paper's 255-row setting swept
// in table6. Both directions reuse their workspaces — zero steady-state
// allocation, one instance per goroutine — and window eviction is O(1)
// amortized via a sequence-numbered hash chain whose heads are a flat table
// over a two-codes-per-multiply row hash. The original allocating Encode
// (O(window) index shift per eviction) lives in oracle_test.go, where the
// parity tests hold the coder to it byte for byte.
package vlz
