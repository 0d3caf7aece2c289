package scenario

import (
	"fmt"
	"maps"
	"slices"

	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/cuszlike"
	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/fzgpulike"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/lowprec"
	"dlrmcomp/internal/lz4like"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/netmodel"
)

// Built is a scenario turned into live objects: the resolved Spec, the
// scaled dataset and its generator, the interconnect model, and the trainer
// wired with codec, controller, and device exactly as the Spec declares.
type Built struct {
	// Spec is the resolved (defaults-filled) scenario.
	Spec Spec
	// Data is the scaled criteo dataset spec the generator draws from.
	Data criteo.Spec
	// Gen is the training batch stream. The offline classification of an
	// adaptive scenario with WarmSteps == 0 samples its first batch from
	// this generator (the CLI's offline flow), so training resumes from the
	// post-probe stream state.
	Gen *criteo.Generator
	// Net is the interconnect topology the trainer charges sim-time against.
	Net netmodel.Topology
	// Trainer is the hybrid-parallel trainer, ready to Step.
	Trainer *dist.Trainer
	// Offline holds the offline classification when the adaptive flow ran
	// with Classes == "offline" (nil otherwise).
	Offline *adapt.OfflineResult
}

// codecMenu is every codec a Spec may name, each mapped onto a constructor
// returning a fresh instance per call (per-table instances keep the adaptive
// controller's per-table bounds independent); "none" constructs nil. A name
// is error-bounded — its frames honor ErrorBound and the adaptive controller
// can drive it — exactly when its codec implements codec.ErrorBounded.
var codecMenu = map[string]func(eb float32) codec.Codec{
	"none":    func(float32) codec.Codec { return nil },
	"hybrid":  func(eb float32) codec.Codec { return hybrid.New(eb, hybrid.Auto) },
	"vector":  func(eb float32) codec.Codec { return hybrid.New(eb, hybrid.VectorLZ) },
	"huffman": func(eb float32) codec.Codec { return hybrid.New(eb, hybrid.Entropy) },
	"fp16":    func(float32) codec.Codec { return lowprec.FP16Codec{} },
	"fp8":     func(float32) codec.Codec { return lowprec.FP8Codec{} },
	"cusz":    func(eb float32) codec.Codec { return cuszlike.New(eb, cuszlike.Lorenzo1D) },
	"fzgpu":   func(eb float32) codec.Codec { return fzgpulike.New(eb) },
	"lz4":     func(float32) codec.Codec { return lz4like.LZSSCodec{} },
	"deflate": func(float32) codec.Codec { return lz4like.DeflateCodec{} },
}

// CodecNames returns every codec name a Spec accepts, sorted.
func CodecNames() []string { return slices.Sorted(maps.Keys(codecMenu)) }

// errorBounded reports whether name is a menu codec that honors an error
// bound.
func errorBounded(name string) bool {
	newCodec, ok := codecMenu[name]
	if !ok {
		return false
	}
	_, ok = newCodec(1).(codec.ErrorBounded)
	return ok
}

// scaledData returns the (possibly seed-overridden) scaled dataset spec of
// a resolved scenario.
func scaledData(rs Spec) criteo.Spec {
	data := baseSpec(rs.Dataset)
	if rs.Seed != 0 {
		data.Seed = rs.Seed
	}
	return criteo.ScaledSpec(data, rs.Scale)
}

// modelConfig returns the DLRM config a resolved scenario declares over its
// scaled dataset.
func modelConfig(rs Spec, data criteo.Spec) model.Config {
	seed := rs.ModelSeed
	if seed == 0 {
		seed = data.Seed
	}
	return model.Config{
		DenseFeatures:     data.DenseFeatures,
		EmbeddingDim:      rs.Dim,
		TableSizes:        data.Cardinalities,
		InitCardinalities: data.FullCardinalities,
		BottomMLP:         rs.BottomMLP,
		TopMLP:            rs.TopMLP,
		Seed:              seed,
	}
}

// Build resolves the spec and assembles the scenario: topology, dataset
// generator, model config, per-table codecs, the adaptive controller (with
// its offline classification when requested), and the trainer. Specs
// declaring the tcp transport cannot build in one process — launch one
// cmd/dlrmworker per rank, which calls BuildWorker.
func (s Spec) Build() (*Built, error) {
	rs, err := s.Resolved()
	if err != nil {
		return nil, err
	}
	if rs.Transport == "tcp" {
		return nil, fmt.Errorf("scenario: transport %q runs one process per rank; launch cmd/dlrmworker (which uses BuildWorker) instead of Build", rs.Transport)
	}
	return build(rs, nil)
}

// BuildWorker assembles one rank's share of a multi-process run: the same
// scenario Build would assemble, with the trainer's collectives running
// over the given transport endpoint. Every worker process must call it
// with an identical spec; each then drives its own Built through the same
// lockstep Run, and the per-step losses every process reports are
// bit-identical to each other and to the in-process Build of the same
// spec (rank 0's process also reproduces the sim-time buckets).
func (s Spec) BuildWorker(tr cluster.Transport) (*Built, error) {
	rs, err := s.Resolved()
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("scenario: BuildWorker needs a transport endpoint")
	}
	if tr.World() != rs.Ranks {
		return nil, fmt.Errorf("scenario: transport world %d does not match the spec's %d ranks", tr.World(), rs.Ranks)
	}
	if rs.Eval > 0 {
		return nil, fmt.Errorf("scenario: eval needs the whole trained model in one process; BuildWorker cannot run it")
	}
	return build(rs, tr)
}

// trainerOptions assembles the dist.Options a resolved scenario declares,
// minus the adaptive controller (build adds the real one, the elastic
// runner's segment rebuilds a placeholder the restore overwrites). The
// fault plan rides along as-is — the dist layer consumes its jitter and
// slow multipliers and ignores its events, which only the elastic runner
// acts on.
func trainerOptions(rs Spec, cfg model.Config, net netmodel.Topology, tr cluster.Transport) dist.Options {
	opts := dist.Options{
		Ranks:              rs.Ranks,
		Transport:          tr,
		Model:              cfg,
		Net:                net,
		OtherComputeFactor: rs.OtherComputeFactor,
		Faults:             rs.Faults,
	}
	if rs.Device == "paper" {
		opts.Device = netmodel.PaperDevice()
	}
	if rs.Codec != "none" {
		newCodec, eb := codecMenu[rs.Codec], float32(rs.ErrorBound)
		opts.CodecFor = func(int) codec.Codec { return newCodec(eb) }
	}
	return opts
}

// build assembles a resolved scenario, over the in-process fabric when tr
// is nil or the given endpoint otherwise.
func build(rs Spec, tr cluster.Transport) (*Built, error) {
	data := scaledData(rs)
	gen := criteo.NewGenerator(data)
	net, err := netmodel.ByName(rs.Topology, rs.RanksPerNode)
	if err != nil {
		return nil, err
	}
	cfg := modelConfig(rs, data)
	opts := trainerOptions(rs, cfg, net, tr)

	b := &Built{Spec: rs, Data: data, Gen: gen, Net: net}
	if rs.Adaptive {
		ctrl, offline, err := buildController(rs, data, cfg, gen)
		if err != nil {
			return nil, err
		}
		opts.Controller = ctrl
		b.Offline = offline
	}
	trainer, err := dist.NewTrainer(opts)
	if err != nil {
		return nil, err
	}
	b.Trainer = trainer
	return b, nil
}

// buildController assembles the adaptive controller a resolved scenario
// declares: either a uniform ClassMedium configuration or the paper's
// offline classification — sampled from a probe model warmed WarmSteps
// single-process steps (its own generator), or, when WarmSteps is 0, from
// the freshly-initialized model on the training generator's first batch.
func buildController(rs Spec, data criteo.Spec, cfg model.Config, gen *criteo.Generator) (*adapt.Controller, *adapt.OfflineResult, error) {
	var classes []adapt.Class
	var offline *adapt.OfflineResult
	switch rs.Classes {
	case "uniform":
		classes = make([]adapt.Class, len(cfg.TableSizes))
		for i := range classes {
			classes[i] = adapt.ClassMedium
		}
	case "offline":
		var samples [][]float32
		if rs.WarmSteps > 0 {
			env, err := buildEnvResolved(rs, data)
			if err != nil {
				return nil, nil, err
			}
			samples, _ = env.SampleLookups(rs.OfflineBatch)
		} else {
			probe, err := model.New(cfg)
			if err != nil {
				return nil, nil, err
			}
			bt := gen.NextBatch(rs.OfflineBatch)
			samples = make([][]float32, len(probe.Emb.Tables))
			for t, tab := range probe.Emb.Tables {
				samples[t] = tab.Lookup(bt.Indices[t]).Data
			}
		}
		res, err := adapt.OfflineAnalysis(samples, rs.Dim, adapt.OfflineOptions{SampleEB: float32(rs.OfflineEB)})
		if err != nil {
			return nil, nil, err
		}
		classes, offline = res.Classes, res
	default:
		return nil, nil, fmt.Errorf("scenario: unknown classes %q", rs.Classes)
	}
	sched, err := adapt.ParseSchedule(rs.Schedule)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := adapt.NewController(classes, adapt.PaperEBConfig(), sched, rs.DecayPhase, rs.DecayFactor)
	if err != nil {
		return nil, nil, err
	}
	return ctrl, offline, nil
}
