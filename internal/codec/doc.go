// Package codec defines the interface every communication compressor in the
// repository implements — the paper's hybrid compressor, the low-precision
// baselines, and the SZ/ZFP/LZ4-family comparators. A codec compresses a
// row-major batch of float32 embedding vectors into a self-contained frame.
//
// Layer: the contract between the compressor implementations (internal/
// hybrid, lowprec, cuszlike, fzgpulike, lz4like) and their consumers (the
// distributed trainer's forward all-to-all and DLCK checkpoints, the serving
// tier's cold blocks, and the experiment drivers). The package holds no
// algorithms and charges no sim time — implementations are priced by
// netmodel.CodecRates under their Name().
//
// Key types: Codec — Name and the append pair. CompressAppend grows a
// send buffer the caller owns (the paper's §III-E buffer optimization: the
// trainer's per-destination frames are filled in place, with no per-table
// output to copy), and DecompressInto fills a destination the caller has
// sized, so no decoder allocates on a count it read from a frame. There is
// one path: every codec implements the pair, nothing type-asserts for a
// faster one, and instances are safe to share across rank goroutines.
// ErrorBounded is a Codec with a tunable absolute error bound, the hook the
// adaptive Controller drives per table per iteration. The hybrid codec
// alone keeps an allocating Compress wrapper, on its concrete type, for
// the facade quick start; decoding has no allocating form.
package codec
