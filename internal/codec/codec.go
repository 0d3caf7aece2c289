package codec

// Codec compresses batches of embedding vectors (row-major float32 with a
// fixed row length dim) into self-contained frames. The caller owns both
// buffers: compression appends to its send buffer, decompression fills a
// destination it has sized, so a decoder never allocates on a count it read
// from the frame. Every method must be safe for concurrent use on one
// instance: the trainer shares one codec per table across rank goroutines
// and its intra-rank codec workers.
type Codec interface {
	// Name identifies the codec in experiment output (e.g. "ours-hybrid").
	Name() string
	// Lossy reports whether reconstruction may differ from the input.
	Lossy() bool
	// CompressAppend encodes the batch and appends the frame to dst,
	// returning the grown buffer; the bytes already in dst are preserved.
	// On error the appended bytes are undefined and dst must be discarded.
	CompressAppend(dst []byte, src []float32, dim int) ([]byte, error)
	// DecompressInto reconstructs the batch into dst and returns the row
	// length dim. len(dst) must equal the frame's value count: a frame
	// whose header says otherwise is rejected before any decoding, and
	// scratch memory is sized from len(dst), never from a length read out
	// of the frame.
	DecompressInto(dst []float32, frame []byte) (int, error)
}

// ErrorBounded is implemented by codecs with a tunable absolute error bound
// (the knob the adaptive strategy drives).
type ErrorBounded interface {
	Codec
	// SetErrorBound updates the bound used by subsequent CompressAppend
	// calls.
	SetErrorBound(eb float32)
	// ErrorBound returns the current bound.
	ErrorBound() float32
}

// Ratio returns the compression ratio achieved by frame for a batch of n
// float32 values (original bytes / compressed bytes).
func Ratio(n int, frame []byte) float64 {
	if len(frame) == 0 {
		return 0
	}
	return float64(n*4) / float64(len(frame))
}
