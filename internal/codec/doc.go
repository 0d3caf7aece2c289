// Package codec defines the interface every communication compressor in the
// repository implements — the paper's hybrid compressor, the low-precision
// baselines, and the SZ/ZFP/LZ4-family comparators. A codec compresses a
// row-major batch of float32 embedding vectors into a self-contained frame.
//
// Layer: the contract between the compressor implementations (internal/
// hybrid, lowprec, cuszlike, fzgpulike, lz4like) and their consumers (the
// distributed trainer's forward all-to-all, the buffer/pipeline
// optimizations, and the experiment drivers). The package holds no
// algorithms and charges no sim time — implementations are priced by
// netmodel.CodecRates under their Name().
//
// Key types: Codec (Compress/Decompress/Name — Compress takes the batch
// and its row dimension, Decompress returns values and dimension, both
// pure so instances may be shared across rank goroutines), ErrorBounded
// (a Codec with a tunable absolute error bound, the hook the adaptive
// Controller drives per table per iteration), and BufferedCodec — the
// optional allocation-free steady-state path (CompressAppend into a
// caller-owned buffer, DecompressInto a caller-sized destination,
// frame/value-identical to Compress/Decompress). Only the hybrid codec
// implements it — there it is the implementation, and Compress/Decompress
// wrap it; the baseline codecs implement the allocating pair alone. The
// package-level CompressAppend/DecompressInto helpers route through the
// buffered path when a codec has one and fall back to Compress/Decompress
// otherwise.
package codec
