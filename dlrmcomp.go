// Package dlrmcomp is the public API of the DLRM communication-compression
// library — a from-scratch Go reproduction of "Accelerating Communication in
// Deep Learning Recommendation Model Training with Dual-Level Adaptive Lossy
// Compression" (SC'24).
//
// The package re-exports the three layers a downstream user needs:
//
//   - the hybrid error-bounded compressor for embedding batches
//     (NewCompressor) plus every baseline codec the paper compares against;
//   - the dual-level adaptive error-bound machinery: offline table analysis
//     and classification (OfflineAnalysis) and the iteration-wise decay
//     controller (NewController);
//   - the hybrid-parallel DLRM trainer on the simulated multi-GPU cluster
//     (NewTrainer), whose forward all-to-all the codecs accelerate; every
//     Trainer.Step keeps two clocks, the synchronous sim-time buckets and
//     the comm/compute overlap schedule (Trainer.OverlappedSimTime, the
//     next batch's all-to-all hidden under the current batch's MLP);
//   - the declarative scenario engine: one Scenario value (or JSON file)
//     describes dataset, cluster shape, topology, codec, and error-bound
//     schedule, and RunScenario/SweepScenarios build and run it
//     (bit-identically at any sweep pool width);
//   - the experiment drivers regenerating every table and figure of the
//     paper's evaluation (RunExperiment, ExperimentIDs).
//
// Quick start:
//
//	c := dlrmcomp.NewCompressor(0.01, dlrmcomp.ModeAuto)
//	frame, _ := c.Compress(batch, dim)     // batch: row-major []float32
//	recon := make([]float32, len(batch))
//	c.DecompressInto(recon, frame)         // |recon[i]-batch[i]| <= 0.01
package dlrmcomp

import (
	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/cluster/tcptransport"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/cuszlike"
	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/experiments"
	"dlrmcomp/internal/fzgpulike"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/lowprec"
	"dlrmcomp/internal/lz4like"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/profileutil"
	"dlrmcomp/internal/scenario"
)

// Codec is the interface implemented by every communication compressor:
// CompressAppend grows a caller-owned send buffer with the batch's frame,
// and DecompressInto reconstructs into a caller-sized destination.
type Codec = codec.Codec

// ErrorBounded is a Codec with a tunable absolute error bound.
type ErrorBounded = codec.ErrorBounded

// Compressor is the paper's hybrid error-bounded compressor. Beside the
// Codec methods it has Compress, which allocates the frame for callers that
// keep no send buffer of their own. Decoding has one entry, DecompressInto,
// into a destination the caller sized.
type Compressor = hybrid.Codec

// Mode selects the hybrid compressor's lossless stage.
type Mode = hybrid.Mode

// Hybrid compressor modes.
const (
	// ModeAuto picks the smaller frame of the two encoders per batch.
	ModeAuto = hybrid.Auto
	// ModeVectorLZ forces the vector-based LZ encoder.
	ModeVectorLZ = hybrid.VectorLZ
	// ModeEntropy forces the optimized Huffman encoder.
	ModeEntropy = hybrid.Entropy
)

// NewCompressor returns the hybrid compressor with the given absolute error
// bound and mode.
func NewCompressor(eb float32, mode Mode) *Compressor { return hybrid.New(eb, mode) }

// Speedup evaluates the paper's Eq. (2) communication speed-up model.
func Speedup(cr, netBandwidth float64, compressBps, decompressBps float64) float64 {
	return hybrid.Speedup(cr, netBandwidth, hybrid.Throughput{Compress: compressBps, Decompress: decompressBps})
}

// --- baseline codecs --------------------------------------------------------

// NewFP16Codec returns the FP16 low-precision baseline.
func NewFP16Codec() Codec { return lowprec.FP16Codec{} }

// NewFP8Codec returns the FP8 (E4M3) low-precision baseline.
func NewFP8Codec() Codec { return lowprec.FP8Codec{} }

// NewCuSZLikeCodec returns the SZ-family error-bounded baseline.
func NewCuSZLikeCodec(eb float32) ErrorBounded { return cuszlike.New(eb, cuszlike.Lorenzo1D) }

// NewFZGPULikeCodec returns the FZ-GPU-family error-bounded baseline.
func NewFZGPULikeCodec(eb float32) ErrorBounded { return fzgpulike.New(eb) }

// NewLZ4LikeCodec returns the byte-level LZSS lossless baseline.
func NewLZ4LikeCodec() Codec { return lz4like.LZSSCodec{} }

// NewDeflateCodec returns the Deflate lossless baseline.
func NewDeflateCodec() Codec { return lz4like.DeflateCodec{} }

// --- adaptive error bounds --------------------------------------------------

// PatternStats, classification, and controller types.
type (
	// PatternStats holds a table's homogenization statistics (Eq. 1).
	PatternStats = adapt.PatternStats
	// Class is a table's error-bound class (L/M/S).
	Class = adapt.Class
	// EBConfig maps classes to error bounds.
	EBConfig = adapt.EBConfig
	// Thresholds are the Homo-Index classification cut points.
	Thresholds = adapt.Thresholds
	// Controller drives per-table, per-iteration error bounds.
	Controller = adapt.Controller
	// Schedule is an iteration-wise decay function.
	Schedule = adapt.Schedule
	// OfflineResult is the output of the offline analysis phase.
	OfflineResult = adapt.OfflineResult
	// OfflineOptions configures OfflineAnalysis.
	OfflineOptions = adapt.OfflineOptions
)

// Error-bound classes.
const (
	ClassLarge  = adapt.ClassLarge
	ClassMedium = adapt.ClassMedium
	ClassSmall  = adapt.ClassSmall
)

// Decay schedules.
const (
	ScheduleNone        = adapt.ScheduleNone
	ScheduleStepwise    = adapt.ScheduleStepwise
	ScheduleLogarithmic = adapt.ScheduleLogarithmic
	ScheduleLinear      = adapt.ScheduleLinear
	ScheduleExponential = adapt.ScheduleExponential
	ScheduleDrop        = adapt.ScheduleDrop
)

// AnalyzeTable computes homogenization statistics for one sampled lookup
// batch.
func AnalyzeTable(tableID int, sample []float32, dim int, eb float32) (PatternStats, error) {
	return adapt.AnalyzeTable(tableID, sample, dim, eb)
}

// OfflineAnalysis runs the paper's table classification (Algorithm 1) over
// per-table sampled lookup batches.
func OfflineAnalysis(samples [][]float32, dim int, opts OfflineOptions) (*OfflineResult, error) {
	return adapt.OfflineAnalysis(samples, dim, opts)
}

// PaperEBConfig returns the paper's chosen bounds: L 0.05, M 0.03, S 0.01.
func PaperEBConfig() EBConfig { return adapt.PaperEBConfig() }

// NewController builds the iteration-wise decay controller over a
// classification result.
func NewController(classes []Class, cfg EBConfig, sched Schedule, phaseLen int, startFactor float64) (*Controller, error) {
	return adapt.NewController(classes, cfg, sched, phaseLen, startFactor)
}

// TrialFunc evaluates one candidate error bound, returning the accuracy
// degradation versus the uncompressed baseline.
type TrialFunc = adapt.TrialFunc

// AutoTuneResult records an error-bound search.
type AutoTuneResult = adapt.AutoTuneResult

// AutoTuneGlobalEB finds the largest candidate bound whose accuracy loss is
// within tolerance (the paper's production criterion is 0.0002 = 0.02%) —
// the automated error-bound selection the paper's §VI lists as future work.
func AutoTuneGlobalEB(candidates []float32, tolerance float64, trial TrialFunc) (*AutoTuneResult, error) {
	return adapt.AutoTuneGlobalEB(candidates, tolerance, trial)
}

// RefineGlobalEB bisects between a known-good and known-bad bound.
func RefineGlobalEB(good, bad float32, tolerance float64, rounds int, trial TrialFunc) (*AutoTuneResult, error) {
	return adapt.RefineGlobalEB(good, bad, tolerance, rounds, trial)
}

// --- training ---------------------------------------------------------------

// Training types.
type (
	// ModelConfig describes a DLRM instance.
	ModelConfig = model.Config
	// DLRM is the single-process model.
	DLRM = model.DLRM
	// Trainer is the hybrid-parallel distributed trainer.
	Trainer = dist.Trainer
	// TrainerOptions configures the distributed trainer.
	TrainerOptions = dist.Options
	// DatasetSpec describes a synthetic Criteo-like dataset.
	DatasetSpec = criteo.Spec
	// Generator produces deterministic batches.
	Generator = criteo.Generator
	// Batch is one mini-batch of samples.
	Batch = criteo.Batch
	// Network is the flat α-β interconnect model.
	Network = netmodel.Network
	// Topology is the pluggable interconnect model collectives charge
	// simulated time against (Network and Hierarchical implement it).
	Topology = netmodel.Topology
	// Hierarchical is the two-level (intra-/inter-node) interconnect model
	// of the paper's testbed; it prices the trainer's all-to-alls as the
	// two-phase algorithm and splits their buckets per link.
	Hierarchical = netmodel.Hierarchical
	// LinkCost attributes a collective's simulated time to the intra- and
	// inter-node link classes of a hierarchical machine.
	LinkCost = netmodel.LinkCost
	// Transport moves bytes between ranks. By default NewTrainer runs every
	// rank in one process over the in-process fabric; setting
	// TrainerOptions.Transport to a DialTCPTransport endpoint instead runs
	// this process as one rank of a multi-process group. The transport
	// conformance suite pins both backends to bit-identical losses and
	// sim-time buckets.
	Transport = cluster.Transport
	// TCPTransportOptions configures one rank's endpoint of the TCP
	// backend: rank, world size, and rank 0's rendezvous address.
	TCPTransportOptions = tcptransport.Options
)

// NewModel builds a single-process DLRM.
func NewModel(cfg ModelConfig) (*DLRM, error) { return model.New(cfg) }

// NewTrainer builds the distributed trainer.
func NewTrainer(opts TrainerOptions) (*Trainer, error) { return dist.NewTrainer(opts) }

// DialTCPTransport performs the TCP rendezvous for one rank and returns its
// connected endpoint. Rank 0 listens at Options.Addr; every other rank dials
// it and the group exchanges a session-stamped address book before pairwise
// connections come up. The endpoint plugs into TrainerOptions.Transport;
// cmd/dlrmworker is the ready-made per-rank worker process built on it.
func DialTCPTransport(o TCPTransportOptions) (Transport, error) { return tcptransport.Dial(o) }

// KaggleSpec returns the Criteo-Kaggle-like dataset spec.
func KaggleSpec() DatasetSpec { return criteo.KaggleSpec() }

// TerabyteSpec returns the Criteo-Terabyte-like dataset spec.
func TerabyteSpec() DatasetSpec { return criteo.TerabyteSpec() }

// ScaledSpec shrinks a spec's cardinalities by factor for fast runs.
func ScaledSpec(s DatasetSpec, factor int) DatasetSpec { return criteo.ScaledSpec(s, factor) }

// NewGenerator builds a deterministic batch generator.
func NewGenerator(spec DatasetSpec) *Generator { return criteo.NewGenerator(spec) }

// Slingshot10 returns the paper-calibrated flat interconnect model.
func Slingshot10() Network { return netmodel.Slingshot10() }

// PaperHierarchical returns the paper-calibrated two-level topology
// (NVLink inside a node, Slingshot-10 between nodes); ranksPerNode <= 0
// selects the testbed's 4 GPUs per node.
func PaperHierarchical(ranksPerNode int) Hierarchical {
	return netmodel.PaperHierarchical(ranksPerNode)
}

// --- scenarios --------------------------------------------------------------

// Scenario types: the declarative configuration layer. A Scenario is pure
// data (JSON round-trip) describing a complete training run — dataset,
// model shape, cluster shape and topology, codec and error bound, adaptive
// schedule — and the engine builds and runs it.
type (
	// Scenario declares one training scenario (internal/scenario.Spec).
	Scenario = scenario.Spec
	// ScenarioResult is one completed scenario: loss curve, eval metrics,
	// compression ratio, the sim-time breakdown, and the overlapped clock.
	ScenarioResult = scenario.Result
	// ScenarioAxes expands per-axis value lists into the cross product of
	// Scenarios for SweepScenarios.
	ScenarioAxes = scenario.Axes
	// Breakdown is a labelled set of sim-time buckets
	// (ScenarioResult.SimTime).
	Breakdown = profileutil.Breakdown
)

// RunScenario validates, builds, and runs one scenario.
func RunScenario(s Scenario) (*ScenarioResult, error) { return scenario.Run(s) }

// SweepScenarios runs every scenario on a pool of min(GOMAXPROCS,
// len(specs)) workers, returning results in input order; results are
// bit-identical at any pool width.
func SweepScenarios(specs []Scenario) ([]*ScenarioResult, error) {
	return scenario.Sweep(specs)
}

// LoadScenario reads a Scenario from a JSON file (unknown fields are an
// error). The same files drive `dlrmtrain -scenario`.
func LoadScenario(path string) (Scenario, error) { return scenario.LoadFile(path) }

// --- experiments ------------------------------------------------------------

// ExperimentResult is a completed experiment.
type ExperimentResult = experiments.Result

// ExperimentOptions tunes experiment cost.
type ExperimentOptions = experiments.Options

// RunExperiment regenerates one of the paper's tables or figures
// (IDs per ExperimentIDs, e.g. "fig11", "table5").
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Run(id, opts)
}

// ExperimentIDs lists every reproducible table and figure.
func ExperimentIDs() []string { return experiments.IDs() }
