package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/serve"
)

// Spec declares one training scenario. The zero value of every field means
// "use the documented default", so a JSON file (or a struct literal) only
// names the knobs it cares about. Specs are pure data: Build turns one into
// a live trainer, Validate reports every inconsistency at once.
type Spec struct {
	// Name labels the scenario in sweep output and JSON files.
	Name string `json:"name,omitempty"`

	// Dataset is "kaggle" (default) or "terabyte".
	Dataset string `json:"dataset,omitempty"`
	// Scale divides every table cardinality (criteo.ScaledSpec); <= 1 keeps
	// the full-size dataset.
	Scale int `json:"scale,omitempty"`
	// Dim is the embedding dimension (0 = 16).
	Dim int `json:"dim,omitempty"`
	// Batch is the global batch size (0 = the dataset's default batch). It
	// is rounded down to a multiple of the rank count, as the trainer
	// shards batches evenly.
	Batch int `json:"batch,omitempty"`
	// Steps is the number of training steps to run.
	Steps int `json:"steps,omitempty"`
	// Eval is the evaluation sample count after training (0 = skip eval).
	Eval int `json:"eval,omitempty"`

	// Ranks is the simulated GPU count (0 = 8, or Nodes×RanksPerNode when
	// Nodes is set). Setting both Ranks and Nodes to inconsistent values is
	// a validation error, not a silent override.
	Ranks int `json:"ranks,omitempty"`
	// Nodes is the node count; when > 0 the rank count is Nodes×RanksPerNode.
	Nodes int `json:"nodes,omitempty"`
	// RanksPerNode is the node width for the hierarchical topology (0 = 4).
	RanksPerNode int `json:"ranks_per_node,omitempty"`
	// Topology is "flat" (default; single α-β link) or "hier" (two-level,
	// per-link sim-time attribution).
	Topology string `json:"topology,omitempty"`
	// A2A selects the all-to-all algorithm: "auto" (default), "direct", or
	// "twophase".
	A2A string `json:"a2a,omitempty"`
	// Transport selects the collective fabric: "inproc" (default; every
	// rank a goroutine in one process) or "tcp" (one OS process per rank
	// over cluster/tcptransport; launch with cmd/dlrmworker). The two
	// transports produce bit-identical losses and sim-time buckets — the
	// conformance suite enforces it. A "tcp" spec cannot Overlap (the
	// pipelined clock needs every rank's costs in one process) and cannot
	// Eval (no single process holds the whole trained model).
	Transport string `json:"transport,omitempty"`

	// Codec names the forward all-to-all compressor: "none" (default),
	// "hybrid", "vector", "huffman", "fp16", "fp8", "cusz", "fzgpu", "lz4",
	// or "deflate".
	Codec string `json:"codec,omitempty"`
	// ErrorBound is the absolute error bound for error-bounded codecs.
	// Required (> 0) when Codec is error-bounded and Adaptive is off.
	ErrorBound float64 `json:"eb,omitempty"`
	// CodecWorkers bounds the intra-rank codec worker pool
	// (dist.Options.CodecWorkers); 0 = auto, negative = sequential.
	CodecWorkers int `json:"codec_workers,omitempty"`
	// ComputeWorkers bounds the intra-rank compute width
	// (dist.Options.ComputeWorkers): goroutines splitting each rank's
	// embedding lookups, MLP matmuls, and optimizer update between
	// collective barriers. 0 = auto, 1 = single-threaded; the training
	// math is bit-identical at every width. Negative values are a
	// validation error (use 1 for single-threaded).
	ComputeWorkers int `json:"compute_workers,omitempty"`

	// Adaptive enables the dual-level adaptive error-bound controller.
	Adaptive bool `json:"adaptive,omitempty"`
	// Classes selects the table classification: "offline" (default; run the
	// paper's offline analysis) or "uniform" (every table ClassMedium).
	Classes string `json:"classes,omitempty"`
	// Schedule is the iteration-wise decay function: "none", "stepwise"
	// (default when Adaptive), "logarithmic", "linear", "exponential", or
	// "drop".
	Schedule string `json:"schedule,omitempty"`
	// DecayPhase is the decay phase length in steps (0 = Steps/2 for
	// decaying schedules).
	DecayPhase int `json:"decay_phase,omitempty"`
	// DecayFactor is the starting error-bound multiplier (0 = 2 for
	// decaying schedules, 1 for "none").
	DecayFactor float64 `json:"decay_factor,omitempty"`
	// OfflineBatch is the sample batch for the offline classification
	// (0 = the dataset's default batch).
	OfflineBatch int `json:"offline_batch,omitempty"`
	// OfflineEB is the probe error bound of the offline analysis
	// (0 = ErrorBound).
	OfflineEB float64 `json:"offline_eb,omitempty"`

	// Overlap pipelines the forward all-to-all of batch k+1 behind the MLP
	// of batch k (dist.Trainer.RunPipelined; same math, overlapped clock).
	Overlap bool `json:"overlap,omitempty"`

	// BottomMLP / TopMLP are the dense MLP layer widths (nil = [64, 32]).
	BottomMLP []int `json:"bottom_mlp,omitempty"`
	TopMLP    []int `json:"top_mlp,omitempty"`
	// Device is "a100" (default; netmodel.A100) or "paper" (the sustained
	// DLRM-layer rate the timing experiments calibrate against).
	Device string `json:"device,omitempty"`
	// OtherComputeFactor charges an "other" bucket of this fraction of the
	// MLP time per step (dist.Options.OtherComputeFactor).
	OtherComputeFactor float64 `json:"other_compute_factor,omitempty"`

	// Seed overrides the dataset seed (0 = the dataset's own seed), making
	// per-scenario streams independent inside a sweep.
	Seed uint64 `json:"seed,omitempty"`
	// ModelSeed overrides the model-init seed (0 = the dataset seed).
	ModelSeed uint64 `json:"model_seed,omitempty"`
	// WarmSteps warms BuildEnv's probe model (and the offline
	// classification's, when Adaptive) by this many single-process steps
	// before sampling. 0 samples from initialization, consuming the
	// training generator — the CLI's offline flow.
	WarmSteps int `json:"warm_steps,omitempty"`

	// Faults, when non-nil, injects deterministic failures: latency jitter
	// and per-rank slow multipliers inflate collective sim-time (losses stay
	// bit-identical to the healthy run), and drop/rejoin events make the run
	// elastic — each event is a segment boundary where the run checkpoints,
	// rebuilds the trainer at the surviving world size (resharding the
	// tables round-robin and charging the redistribution to the "reshard"
	// bucket), restores, and trains on. Events need the in-process
	// transport and no overlap; jitter and slow ranks work everywhere.
	Faults *cluster.FaultPlan `json:"faults,omitempty"`
	// Checkpoint, when non-nil, checkpoints the trainer during the run.
	Checkpoint *CheckpointSpec `json:"checkpoint,omitempty"`
	// Serve, when non-nil, configures the inference serving layer built
	// from this scenario's trained model (cmd/dlrmserve, the loadtest
	// experiment). Training ignores it.
	Serve *ServeSpec `json:"serve,omitempty"`
}

// ServeSpec configures internal/serve for a scenario's model: how the
// embedding tables shard, how the cold tier compresses, how large the hot
// cache runs, and how the micro-batching service admits load. The zero
// value of every field means the serve package's documented default.
type ServeSpec struct {
	// Shards is the embedding-server count (0 = 1).
	Shards int `json:"shards,omitempty"`
	// Codec is the cold-tier frame codec: "raw" (default), "lzss",
	// "deflate" (lossless — serving scores are bit-identical to
	// uncompressed tables), or "quant" (lossy, bounded by QuantEB).
	Codec string `json:"codec,omitempty"`
	// QuantEB is the absolute error bound of the "quant" codec. Required
	// (> 0) with codec "quant", rejected otherwise.
	QuantEB float64 `json:"quant_eb,omitempty"`
	// BlockRows is the cold-frame granularity in rows (0 = 64).
	BlockRows int `json:"block_rows,omitempty"`
	// HotBytes budgets the decoded-row hot cache (0 = a quarter of the
	// uncompressed footprint; negative = no cache).
	HotBytes int64 `json:"hot_bytes,omitempty"`
	// MaxBatch caps a micro-batch (0 = 64); a free batcher scores whatever
	// is queued, up to this many requests, without waiting for more.
	MaxBatch int `json:"max_batch,omitempty"`
	// QueueDepth bounds the intake queue (0 = 4×MaxBatch); Workers is the
	// batcher count (0 = 1).
	QueueDepth int `json:"queue_depth,omitempty"`
	Workers    int `json:"workers,omitempty"`
	// Requests and Clients size the closed-loop load drivers
	// (cmd/dlrmserve, the loadtest experiment): total requests issued
	// (0 = driver default) by this many concurrent clients (0 = 8).
	Requests int `json:"requests,omitempty"`
	Clients  int `json:"clients,omitempty"`
}

// CheckpointSpec configures in-run checkpointing. Checkpoints serialize to
// memory — the scenario layer measures and verifies them; persisting to
// disk is the driver's business. Requires the in-process transport (a
// worker process holds only its own rank's fresh state) and no overlap
// (checkpoints capture between-steps state).
type CheckpointSpec struct {
	// Every saves a checkpoint after every Every-th step (0 = only the
	// segment-boundary checkpoints an elastic run takes anyway).
	Every int `json:"every,omitempty"`
	// Codec is the lossless frame codec ("raw", "lzss", or "deflate";
	// "" = raw). Lossy codecs are not on the menu: a checkpoint must
	// restore bit-exactly or the resume-parity guarantee dies.
	Codec string `json:"codec,omitempty"`
	// Verify restores every saved checkpoint straight back into the live
	// trainer. Restoring round-tripped state is a no-op exactly when
	// save/restore is bit-faithful, so a verified run's losses are
	// bit-identical to the same run without checkpointing — the parity
	// tests pin that.
	Verify bool `json:"verify,omitempty"`
}

// datasets, devices, and classes the Spec accepts ("" = default).
var (
	datasetNames   = map[string]bool{"": true, "kaggle": true, "terabyte": true}
	deviceNames    = map[string]bool{"": true, "a100": true, "paper": true}
	classNames     = map[string]bool{"": true, "offline": true, "uniform": true}
	transportNames = map[string]bool{"": true, "inproc": true, "tcp": true}
)

// errorBoundedCodecs are the codec names whose frames honor ErrorBound (and
// which the adaptive controller can drive).
var errorBoundedCodecs = map[string]bool{
	"hybrid": true, "vector": true, "huffman": true, "cusz": true, "fzgpu": true,
}

// codecNames is every accepted Codec value ("" = "none").
var codecNames = map[string]bool{
	"": true, "none": true, "hybrid": true, "vector": true, "huffman": true,
	"fp16": true, "fp8": true, "cusz": true, "fzgpu": true, "lz4": true, "deflate": true,
}

// checkpointCodecNames is every accepted CheckpointSpec.Codec value, taken
// from the dist layer's menu so the two cannot drift ("" = the default).
var checkpointCodecNames = func() map[string]bool {
	m := map[string]bool{"": true}
	for _, n := range dist.CheckpointCodecs() {
		m[n] = true
	}
	return m
}()

// serveCodecNames is every accepted ServeSpec.Codec value, taken from the
// serve layer's menu so the two cannot drift ("" = the default).
var serveCodecNames = func() map[string]bool {
	m := map[string]bool{"": true}
	for _, n := range serve.ColdCodecs() {
		m[n] = true
	}
	return m
}()

// baseSpec returns the criteo dataset spec a Dataset name denotes.
func baseSpec(name string) criteo.Spec {
	if name == "terabyte" {
		return criteo.TerabyteSpec()
	}
	return criteo.KaggleSpec()
}

// resolvedRanks computes the rank count the spec denotes, applying the
// Nodes×RanksPerNode product and the defaults.
func (s Spec) resolvedRanks() int {
	rpn := s.RanksPerNode
	if rpn <= 0 {
		rpn = 4
	}
	if s.Nodes > 0 {
		return s.Nodes * rpn
	}
	if s.Ranks > 0 {
		return s.Ranks
	}
	return 8
}

// Validate checks the spec and returns every problem it finds, joined into
// one error (errors.Join) so a driver can print the complete list instead
// of the first complaint. A nil return means Build will accept the spec.
func (s Spec) Validate() error {
	var errs []error
	add := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if !datasetNames[s.Dataset] {
		add("unknown dataset %q (want kaggle or terabyte)", s.Dataset)
	}
	if !deviceNames[s.Device] {
		add("unknown device %q (want a100 or paper)", s.Device)
	}
	if !classNames[s.Classes] {
		add("unknown classes %q (want offline or uniform)", s.Classes)
	}
	if !codecNames[s.Codec] {
		add("unknown codec %q (want none, hybrid, vector, huffman, fp16, fp8, cusz, fzgpu, lz4, or deflate)", s.Codec)
	}
	if !transportNames[s.Transport] {
		add("unknown transport %q (want inproc or tcp)", s.Transport)
	}
	if s.Transport == "tcp" && s.Overlap {
		add("transport tcp cannot overlap: the pipelined driver needs every rank's collective costs in one process")
	}
	if s.Transport == "tcp" && s.Eval > 0 {
		add("transport tcp cannot eval: no worker process holds the whole trained model; evaluate with an in-process scenario")
	}
	if _, err := netmodel.ByName(s.Topology, s.RanksPerNode); err != nil {
		errs = append(errs, err)
	}
	if _, err := cluster.ParseA2AAlgo(s.A2A); err != nil {
		errs = append(errs, err)
	}
	if _, err := adapt.ParseSchedule(s.Schedule); err != nil {
		errs = append(errs, err)
	}

	for _, f := range []struct {
		name string
		v    int
	}{
		{"scale", s.Scale}, {"dim", s.Dim}, {"batch", s.Batch}, {"steps", s.Steps},
		{"eval", s.Eval}, {"ranks", s.Ranks}, {"nodes", s.Nodes},
		{"ranks_per_node", s.RanksPerNode}, {"decay_phase", s.DecayPhase},
		{"offline_batch", s.OfflineBatch}, {"warm_steps", s.WarmSteps},
	} {
		if f.v < 0 {
			add("%s must be >= 0, got %d", f.name, f.v)
		}
	}
	if s.ComputeWorkers < 0 {
		add("compute_workers must be >= 0 (0 = auto, 1 = single-threaded), got %d", s.ComputeWorkers)
	}
	if s.ErrorBound < 0 {
		add("eb must be >= 0, got %v", s.ErrorBound)
	}
	if s.OfflineEB < 0 {
		add("offline_eb must be >= 0, got %v", s.OfflineEB)
	}
	if s.DecayFactor != 0 && s.DecayFactor < 1 {
		add("decay_factor must be >= 1 (or 0 for the default), got %v", s.DecayFactor)
	}

	// Cluster-shape consistency: the old driver silently let
	// -nodes/-ranks-per-node override -ranks; here the mismatch is an error.
	rpn := s.RanksPerNode
	if rpn == 0 {
		rpn = 4
	}
	if s.Ranks > 0 && s.Nodes > 0 && rpn > 0 && s.Ranks != s.Nodes*rpn {
		add("ranks %d is inconsistent with nodes %d × ranks_per_node %d = %d; drop ranks or fix the product",
			s.Ranks, s.Nodes, rpn, s.Nodes*rpn)
	}
	// An explicit nodes=1 with the hierarchical topology can only be a
	// mistake — the requested node structure never exercises the
	// inter-node link. (A rank count that merely fits in one node, with
	// Nodes unset, stays legal: it is the degenerate intra-only baseline
	// the small end of the scaling sweep compares against.)
	hier := s.Topology == "hier" || s.Topology == "hierarchical"
	if hier && s.Nodes == 1 {
		add("hierarchical topology with an explicit nodes=1 never exercises the inter-node link; use topology=flat, nodes >= 2, or omit nodes")
	}
	if !hier && s.Nodes > 1 {
		add("nodes=%d requires topology=hier (the flat topology has no node structure)", s.Nodes)
	}
	// Shardability of the batch the run would actually use, so a nil
	// Validate really does mean Build will accept the spec: an unset batch
	// means the dataset default.
	if datasetNames[s.Dataset] {
		batch, ranks := s.Batch, s.resolvedRanks()
		if batch == 0 {
			batch = baseSpec(s.Dataset).DefaultBatch
		}
		if batch < ranks {
			if s.Batch == 0 {
				add("default batch %d (dataset %s) is smaller than the %d ranks it must shard across; set batch explicitly", batch, baseSpec(s.Dataset).Name, ranks)
			} else {
				add("batch %d is smaller than the %d ranks it must shard across", batch, ranks)
			}
		}
	}

	// Faults and checkpointing.
	if err := s.Faults.Validate(s.resolvedRanks(), s.Steps); err != nil {
		errs = append(errs, err)
	}
	if s.Faults != nil && len(s.Faults.Events) > 0 {
		if s.Transport == "tcp" {
			add("fault events need the in-process transport: the elastic runner checkpoints and rebuilds the whole world in one process")
		}
		if s.Overlap {
			add("fault events cannot overlap: segment boundaries checkpoint between steps, and the pipelined driver keeps steps in flight")
		}
	}
	if c := s.Checkpoint; c != nil {
		if c.Every < 0 {
			add("checkpoint every must be >= 0, got %d", c.Every)
		}
		if !checkpointCodecNames[c.Codec] {
			add("unknown checkpoint codec %q (want raw, lzss, or deflate)", c.Codec)
		}
		if s.Transport == "tcp" {
			add("checkpoints need the in-process transport: a worker process holds fresh state only for its own rank")
		}
		if s.Overlap {
			add("checkpoints cannot overlap: they capture between-steps state, and the pipelined driver keeps steps in flight")
		}
	}

	// Serving.
	if sv := s.Serve; sv != nil {
		if !serveCodecNames[sv.Codec] {
			add("unknown serve codec %q (want raw, lzss, deflate, or quant)", sv.Codec)
		}
		for _, f := range []struct {
			name string
			v    int
		}{
			{"serve shards", sv.Shards}, {"serve block_rows", sv.BlockRows},
			{"serve max_batch", sv.MaxBatch}, {"serve queue_depth", sv.QueueDepth},
			{"serve workers", sv.Workers},
			{"serve requests", sv.Requests}, {"serve clients", sv.Clients},
		} {
			if f.v < 0 {
				add("%s must be >= 0, got %d", f.name, f.v)
			}
		}
		// HotBytes stays unchecked: negative is the documented
		// "no hot cache" setting.
		if sv.QuantEB < 0 {
			add("serve quant_eb must be >= 0, got %v", sv.QuantEB)
		}
		if sv.Codec == "quant" && sv.QuantEB == 0 {
			add("serve codec %q is lossy; set quant_eb > 0", sv.Codec)
		}
		if sv.Codec != "quant" && sv.QuantEB > 0 {
			add("serve quant_eb is the \"quant\" codec's knob; codec %q does not quantize", sv.Codec)
		}
	}

	// Codec / adaptive consistency.
	codecName := s.Codec
	if codecName == "" {
		codecName = "none"
	}
	if codecNames[s.Codec] {
		switch {
		case s.Adaptive && codecName == "none":
			add("adaptive error bounds need a codec; set codec (e.g. hybrid)")
		case s.Adaptive && !errorBoundedCodecs[codecName]:
			add("adaptive error bounds need an error-bounded codec, not %q", codecName)
		case !s.Adaptive && errorBoundedCodecs[codecName] && s.ErrorBound == 0:
			add("codec %q is error-bounded; set eb > 0", codecName)
		}
	}
	return errors.Join(errs...)
}

// Resolved validates the spec and returns a copy with every default filled
// in: the canonical form Build runs and Result reports. Resolving an
// already-resolved spec is the identity.
func (s Spec) Resolved() (Spec, error) {
	if err := s.Validate(); err != nil {
		return s, err
	}
	if s.Dataset == "" {
		s.Dataset = "kaggle"
	}
	if s.Dim == 0 {
		s.Dim = 16
	}
	switch s.Topology {
	case "":
		s.Topology = "flat"
	case "hierarchical":
		s.Topology = "hier"
	}
	if s.RanksPerNode == 0 {
		s.RanksPerNode = 4
	}
	s.Ranks = s.resolvedRanks()
	if s.A2A == "" {
		s.A2A = "auto"
	}
	if s.Transport == "" {
		s.Transport = "inproc"
	}
	if s.Codec == "" {
		s.Codec = "none"
	}
	if s.Device == "" {
		s.Device = "a100"
	}
	if s.BottomMLP == nil {
		s.BottomMLP = []int{64, 32}
	}
	if s.TopMLP == nil {
		s.TopMLP = []int{64, 32}
	}
	base := baseSpec(s.Dataset)
	if s.Batch == 0 {
		s.Batch = base.DefaultBatch
	}
	s.Batch = s.Batch / s.Ranks * s.Ranks
	if s.Batch == 0 {
		return s, fmt.Errorf("scenario: default batch %d cannot shard across %d ranks; set batch explicitly", base.DefaultBatch, s.Ranks)
	}
	if s.Adaptive {
		if s.Classes == "" {
			s.Classes = "offline"
		}
		if s.Schedule == "" {
			s.Schedule = "stepwise"
		}
		decaying := s.Schedule != "none"
		if s.DecayFactor == 0 {
			if decaying {
				s.DecayFactor = 2
			} else {
				s.DecayFactor = 1
			}
		}
		if s.DecayPhase == 0 && decaying {
			s.DecayPhase = s.Steps / 2
		}
		if s.OfflineBatch == 0 {
			s.OfflineBatch = base.DefaultBatch
		}
		if s.OfflineEB == 0 {
			s.OfflineEB = s.ErrorBound
		}
	}
	if s.Checkpoint != nil && s.Checkpoint.Codec == "" {
		// Clone before filling the default: Resolved returns a copy, and
		// writing through the shared pointer would mutate the caller's spec.
		c := *s.Checkpoint
		c.Codec = dist.DefaultCheckpointCodec
		s.Checkpoint = &c
	}
	if s.Serve != nil && s.Serve.Codec == "" {
		// Same pointer-clone discipline as Checkpoint above.
		sv := *s.Serve
		sv.Codec = serve.DefaultColdCodec
		s.Serve = &sv
	}
	return s, nil
}

// LoadFile reads a Spec from a JSON file. Unknown fields are an error —
// scenario files are declarative configuration, and a typoed knob silently
// running the default workload is exactly the failure mode this layer
// removes.
func LoadFile(path string) (Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario %s: %w", path, err)
	}
	return s, nil
}
