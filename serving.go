package dlrmcomp

import (
	"io"

	"dlrmcomp/internal/serve"
)

// This file exports the serving layer: sharded embedding servers loaded
// from a DLCK checkpoint, with a Zipf-aware hot-row cache of decoded rows
// over a compressed cold tier, admission control, and micro-batching.
// Lossless cold codecs serve scores bit-identical to the uncompressed
// model; the "quant" codec trades a bounded score deviation for an
// actually-compressed resident cold tier.

// ServeOptions configures a Server: shard count, cold-tier codec and
// quantization bound, and hot-cache byte budget. The micro-batching shape
// (one batcher, batches of up to 64, a 256-deep queue) is fixed.
type ServeOptions = serve.Options

// ServeStats is a point-in-time snapshot of a Server's request, cache,
// and memory counters.
type ServeStats = serve.Stats

// Server is a sharded, cached embedding-model scorer.
type Server = serve.Server

// ErrServerOverloaded is returned by Server.Score when admission control
// sheds the request; ErrServerClosed after Close.
var (
	ErrServerOverloaded = serve.ErrOverloaded
	ErrServerClosed     = serve.ErrClosed
)

// ServeColdCodecs lists the registered cold-tier codec names.
func ServeColdCodecs() []string { return serve.ColdCodecs() }

// NewServer loads a serving layer from a DLCK checkpoint stream (written
// by Trainer.SaveCheckpoint or cmd/dlrmtrain -save). The config must
// describe the architecture the checkpoint was trained under.
func NewServer(cfg ModelConfig, r io.Reader, opts ServeOptions) (*Server, error) {
	return serve.New(cfg, r, opts)
}

// NewServerFromModel serves an in-memory model directly — the test and
// experiment path that skips checkpoint serialization.
func NewServerFromModel(m *DLRM, opts ServeOptions) (*Server, error) {
	return serve.NewFromModel(m, opts)
}
