package model

import (
	"fmt"

	"dlrmcomp/internal/embedding"
	"dlrmcomp/internal/interaction"
	"dlrmcomp/internal/nn"
	"dlrmcomp/internal/tensor"
)

// Config describes a DLRM instance. It mirrors the knobs of the open-source
// reference implementation (arch-mlp-bot, arch-mlp-top, arch-sparse-feature-size).
type Config struct {
	DenseFeatures int   // number of continuous inputs (13 for Criteo)
	EmbeddingDim  int   // sparse feature size d
	TableSizes    []int // cardinality per categorical feature (26 for Criteo)
	// InitCardinalities optionally decouples the embedding init range from
	// TableSizes: table t is initialized as if it had InitCardinalities[t]
	// rows. Scaled-down datasets use this to preserve full-scale value
	// statistics. Nil means TableSizes.
	InitCardinalities []int
	BottomMLP         []int // hidden sizes of the bottom MLP, excluding in/out
	TopMLP            []int // hidden sizes of the top MLP, excluding in/out
	Seed              uint64
}

// Validate checks internal consistency.
func (c *Config) Validate() error {
	if c.DenseFeatures <= 0 {
		return fmt.Errorf("model: DenseFeatures must be positive")
	}
	if c.EmbeddingDim <= 0 {
		return fmt.Errorf("model: EmbeddingDim must be positive")
	}
	if len(c.TableSizes) == 0 {
		return fmt.Errorf("model: at least one embedding table required")
	}
	for i, n := range c.TableSizes {
		if n <= 0 {
			return fmt.Errorf("model: TableSizes[%d] = %d invalid", i, n)
		}
	}
	if c.InitCardinalities != nil && len(c.InitCardinalities) != len(c.TableSizes) {
		return fmt.Errorf("model: InitCardinalities has %d entries for %d tables",
			len(c.InitCardinalities), len(c.TableSizes))
	}
	return nil
}

// DLRM is the assembled model.
type DLRM struct {
	Cfg      Config
	Bottom   *nn.MLP
	Emb      *embedding.Group
	Interact *interaction.DotInteraction
	Top      *nn.MLP

	// caches from the last Forward for Backward
	lastDense   *tensor.Matrix
	lastLookups []*tensor.Matrix
}

// New constructs the model from cfg.
func New(cfg Config) (*DLRM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	bottomSizes := append([]int{cfg.DenseFeatures}, cfg.BottomMLP...)
	bottomSizes = append(bottomSizes, cfg.EmbeddingDim)
	di := interaction.NewDotInteraction(len(cfg.TableSizes), cfg.EmbeddingDim)
	topSizes := append([]int{di.OutDim()}, cfg.TopMLP...)
	topSizes = append(topSizes, 1)
	return &DLRM{
		Cfg:      cfg,
		Bottom:   nn.NewMLP(bottomSizes, rng),
		Emb:      embedding.NewGroupWithInit(cfg.TableSizes, cfg.InitCardinalities, cfg.EmbeddingDim, rng),
		Interact: di,
		Top:      nn.NewMLP(topSizes, rng),
	}, nil
}

// SetComputeWorkers sets the intra-step parallel width on every compute
// layer of the model (bottom/top MLP matmuls and the pairwise interaction;
// 0 = GOMAXPROCS, 1 = single-threaded). Training results are bitwise
// identical at any width — the width only controls how rows are partitioned
// across the tensor worker pool.
func (m *DLRM) SetComputeWorkers(w int) {
	m.Bottom.SetWorkers(w)
	m.Top.SetWorkers(w)
	m.Interact.Workers = w
}

// ForwardFromLookups runs the model given dense inputs and pre-gathered
// embedding lookups (one [n, d] matrix per table). This is the entry point
// the distributed trainer uses: in hybrid-parallel training the lookups
// arrive from the all-to-all exchange (possibly lossily reconstructed).
func (m *DLRM) ForwardFromLookups(dense *tensor.Matrix, lookups []*tensor.Matrix) *tensor.Matrix {
	bot := m.Bottom.Forward(dense)
	m.lastDense = dense
	m.lastLookups = lookups
	z := m.Interact.Forward(bot, lookups)
	return m.Top.Forward(z)
}

// Forward performs lookups locally then runs ForwardFromLookups.
func (m *DLRM) Forward(dense *tensor.Matrix, indices [][]int32) *tensor.Matrix {
	lookups := m.Emb.LookupAll(indices)
	return m.ForwardFromLookups(dense, lookups)
}

// Backward propagates dLogits and returns the gradient of every embedding
// lookup batch (the tensors that flow through the backward all-to-all).
// MLP parameter gradients are accumulated internally; the gradient of the
// dense input is never formed, since nothing reads it.
func (m *DLRM) Backward(dLogits *tensor.Matrix) []*tensor.Matrix {
	dZ := m.Top.Backward(dLogits)
	dBot, dLookups := m.Interact.Backward(dZ)
	m.Bottom.BackwardParams(dBot)
	return dLookups
}

// ZeroGrad clears all MLP gradients.
func (m *DLRM) ZeroGrad() {
	m.Bottom.ZeroGrad()
	m.Top.ZeroGrad()
}

// DenseParams returns the MLP parameters (the data-parallel, all-reduced part).
func (m *DLRM) DenseParams() []nn.Param {
	return append(m.Bottom.Params(), m.Top.Params()...)
}

// TrainStep runs one full local mini-batch update (no communication):
// forward, BCE loss, backward, embedding scatter, optimizer step.
// Returns the loss.
func (m *DLRM) TrainStep(dense *tensor.Matrix, indices [][]int32, labels []float32, opt *nn.SGD, embLR float32) float32 {
	m.ZeroGrad()
	logits := m.Forward(dense, indices)
	loss, dLogits := nn.BCEWithLogits(logits, labels)
	dLookups := m.Backward(dLogits)
	for ti, tab := range m.Emb.Tables {
		tab.ApplySGD(embedding.SparseGrad{Indices: indices[ti], Grad: dLookups[ti]}, embLR)
	}
	opt.Step(m.DenseParams())
	return loss
}

// Evaluate computes accuracy and log-loss over a dataset batch.
func (m *DLRM) Evaluate(dense *tensor.Matrix, indices [][]int32, labels []float32) (acc, logloss float64) {
	logits := m.Forward(dense, indices)
	return nn.Accuracy(logits, labels), nn.LogLoss(logits, labels)
}
