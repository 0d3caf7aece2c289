// Package hybrid implements the paper's hybrid error-bounded lossy
// compressor for embedding batches (§III-D): an error-bounded quantization
// encoder (internal/quant) feeding one of two lossless encoders — the
// vector-based LZ encoder (internal/vlz) or the optimized Huffman encoder
// (internal/huffman) — with the per-table choice made offline by the
// Eq. (2) speed-up model or online by smallest-output selection (Auto: the
// Huffman encoder sizes its frame without emitting it, vector-LZ encodes
// under that size as a byte budget, and only the winner is written).
//
// Layer: the headline codec of the reproduction, implementing
// internal/codec.ErrorBounded. The distributed trainer compresses its
// forward all-to-all with it; netmodel.PaperCodecRates prices it in
// end-to-end projections under "ours-hybrid" (and "ours-vector" /
// "ours-huffman" when a mode is forced).
//
// Key types: Codec (New(eb, mode)), Mode (Auto / VectorLZ / Entropy),
// SelectEncoder (Algorithm 2's offline per-table choice, timed best-of-3
// after one untimed round trip per encoder, so the decision is taken at
// steady state and is noise-stable), and
// Speedup/Throughput, the Eq. (2) communication speed-up model used by
// both the offline phase and the fig11 experiment.
//
// There is one implementation: CompressAppend/DecompressInto (codec.Codec's
// append pair, buffered.go) draw every scratch buffer from a pooled
// workspace, so the trainer's steady-state codec work performs no heap
// allocation and one shared instance stays goroutine-safe. Compress is
// CompressAppend into a fresh buffer; Decompress parses the header, checks
// its value count against the payload's own before allocating, and calls
// the same decode body. That body decodes rows [lo, hi) of a frame:
// DecompressRowsInto exposes it for the serving tier's cold gathers — the
// lossless stage runs through the prefix forms of the vector-LZ and
// Huffman decoders only to the end of row hi-1, and only rows [lo, hi) are
// dequantized — and DecompressInto is its whole-frame case, which decodes
// through the exact-count forms so the payload's own count is checked
// against the header's. Huffman symbols are un-zigzagged and dequantized
// in one pass (quant.DequantizeZigZag); like the quantize pass on the
// encode side, it runs on the quantizer's AVX body where the host has one
// and is bit for bit the Go loop either way. Frames are pinned by
// testdata/frames.golden.
package hybrid
