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
		Shards:    sv.Shards,
		ColdCodec: sv.Codec,
		QuantEB:   float32(sv.QuantEB),
		HotBytes:  sv.HotBytes,
	}
}

// ServeLoad returns how many requests the closed-loop load driver issues
// and from how many concurrent clients: the Serve block's requests and
// clients, 20000 and 8 where it leaves them unset.
func (s Spec) ServeLoad() (requests, clients int) {
	requests, clients = 20000, 8
	if sv := s.Serve; sv != nil {
		if sv.Requests > 0 {
			requests = sv.Requests
		}
		if sv.Clients > 0 {
			clients = sv.Clients
		}
	}
	return requests, clients
}

// ServeRequests replays n single-sample batches from a resolved scenario's
// dataset generator as Score requests: the Zipf-skewed traffic training
// saw, which is what makes the hot cache earn its budget.
func (s Spec) ServeRequests(n int) []serve.Request {
	gen := criteo.NewGenerator(s.Data())
	reqs := make([]serve.Request, n)
	for i := range reqs {
		b := gen.NextBatch(1)
		idx := make([]int32, len(b.Indices))
		for t := range b.Indices {
			idx[t] = b.Indices[t][0]
		}
		reqs[i] = serve.Request{Dense: b.Dense.Row(0), Indices: idx}
	}
	return reqs
}
