package scenario

import (
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/serve"
)

// Data returns the scaled (and possibly seed-overridden) criteo dataset
// spec of a resolved scenario — the stream both training and the serving
// load drivers draw from. Call it on Resolved output; on an unresolved
// spec the unfilled defaults (dataset, scale) flow through literally.
func (s Spec) Data() criteo.Spec { return scaledData(s) }

// ModelConfig returns the DLRM config a resolved scenario declares — what
// serve.New needs to rebuild the architecture around a checkpoint's
// weights. Same resolution caveat as Data.
func (s Spec) ModelConfig() model.Config { return modelConfig(s, scaledData(s)) }

// ServeOptions translates a resolved scenario's Serve block into
// serve.Options. A nil Serve block means "all defaults" — every scenario
// can be served.
func (s Spec) ServeOptions() serve.Options {
	sv := s.Serve
	if sv == nil {
		return serve.Options{}
	}
	return serve.Options{
		Shards:     sv.Shards,
		ColdCodec:  sv.Codec,
		QuantEB:    float32(sv.QuantEB),
		BlockRows:  sv.BlockRows,
		HotBytes:   sv.HotBytes,
		MaxBatch:   sv.MaxBatch,
		QueueDepth: sv.QueueDepth,
		Workers:    sv.Workers,
	}
}
