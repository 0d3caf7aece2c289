package criteo

import (
	"fmt"
	"math"

	"dlrmcomp/internal/tensor"
)

// KaggleCardinalities are the categorical-feature cardinalities of the
// Criteo Ad Kaggle dataset (counts published with the open-source DLRM
// reference implementation).
var KaggleCardinalities = []int{
	1460, 583, 10131227, 2202608, 305, 24, 12517, 633, 3, 93145,
	5683, 8351593, 3194, 27, 14992, 5461306, 10, 5652, 2173, 4,
	7046547, 18, 15, 286181, 105, 142572,
}

// TerabyteCardinalities are the categorical-feature cardinalities of the
// Criteo Terabyte dataset (MLPerf DLRM preprocessing).
var TerabyteCardinalities = []int{
	39884406, 39043, 17289, 7420, 20263, 3, 7120, 1543, 63, 38532951,
	2953546, 403346, 10, 2208, 11938, 155, 4, 976, 14, 39979771,
	25641295, 39664984, 585935, 12972, 108, 36,
}

// Spec describes a synthetic dataset.
type Spec struct {
	Name          string
	DenseFeatures int
	Cardinalities []int
	// ZipfS is the skew exponent of the per-table Zipf query distribution
	// (> 1). Larger values concentrate lookups on fewer hot keys.
	ZipfS float64
	// DefaultBatch is the mini-batch size the paper uses for this dataset.
	DefaultBatch int
	Seed         uint64
	// FullCardinalities holds the unscaled cardinalities when the spec was
	// produced by ScaledSpec (nil otherwise). Models built from a scaled
	// spec should initialize their embedding tables with these so value
	// statistics match the full-size dataset.
	FullCardinalities []int
}

// KaggleSpec returns the Criteo-Kaggle-like dataset spec (batch 128, as in
// the paper's Tables III/V).
func KaggleSpec() Spec {
	return Spec{
		Name:          "kaggle",
		DenseFeatures: 13,
		Cardinalities: KaggleCardinalities,
		ZipfS:         1.2,
		DefaultBatch:  128,
		Seed:          1,
	}
}

// TerabyteSpec returns the Criteo-Terabyte-like dataset spec (batch 2048).
func TerabyteSpec() Spec {
	return Spec{
		Name:          "terabyte",
		DenseFeatures: 13,
		Cardinalities: TerabyteCardinalities,
		ZipfS:         1.25,
		DefaultBatch:  2048,
		Seed:          2,
	}
}

// ScaledSpec shrinks a spec's cardinalities by factor (minimum 1 row per
// table) so that unit tests and examples can run quickly while preserving
// the relative size distribution across tables.
func ScaledSpec(s Spec, factor int) Spec {
	if factor <= 1 {
		return s
	}
	if s.FullCardinalities == nil {
		s.FullCardinalities = s.Cardinalities
	}
	scaled := make([]int, len(s.Cardinalities))
	for i, c := range s.Cardinalities {
		scaled[i] = c / factor
		if scaled[i] < 1 {
			scaled[i] = 1
		}
	}
	s.Cardinalities = scaled
	s.Name = fmt.Sprintf("%s/%d", s.Name, factor)
	return s
}

// Batch is one mini-batch of samples.
type Batch struct {
	Dense   *tensor.Matrix // [n, DenseFeatures]
	Indices [][]int32      // [numTables][n]
	Labels  []float32      // [n] in {0,1}
}

// N returns the number of samples in the batch.
func (b *Batch) N() int { return b.Dense.Rows }

// Generator produces deterministic batches for a Spec.
type Generator struct {
	Spec Spec

	rng   *tensor.RNG
	zipfs []*Zipf

	// planted ground-truth model for labels
	denseW   []float32
	tableFx  [][]float32 // per-table bucketed effects
	biasTerm float32
}

const labelBuckets = 64

// NewGenerator builds a generator. The same (spec, seed) always yields the
// same sample stream.
func NewGenerator(spec Spec) *Generator {
	rng := tensor.NewRNG(spec.Seed)
	g := &Generator{Spec: spec, rng: rng}
	for ti, card := range spec.Cardinalities {
		g.zipfs = append(g.zipfs, NewZipf(rng, spec.ZipfS, uint64(card)))
		fx := make([]float32, labelBuckets)
		rng.FillNormal(fx, 0, 0.3)
		g.tableFx = append(g.tableFx, fx)
		_ = ti
	}
	g.denseW = make([]float32, spec.DenseFeatures)
	rng.FillNormal(g.denseW, 0, 0.4)
	g.biasTerm = -0.8 // CTR base rate below 50%, like real click logs
	return g
}

// NextBatch generates n samples.
func (g *Generator) NextBatch(n int) *Batch {
	spec := g.Spec
	b := &Batch{
		Dense:   tensor.NewMatrix(n, spec.DenseFeatures),
		Indices: make([][]int32, len(spec.Cardinalities)),
		Labels:  make([]float32, n),
	}
	for ti := range b.Indices {
		b.Indices[ti] = make([]int32, n)
	}
	for i := 0; i < n; i++ {
		// Dense features: log-normal-ish positive values then standardized,
		// mimicking Criteo's count features after log transform.
		drow := b.Dense.Row(i)
		for j := range drow {
			drow[j] = float32(g.rng.NormFloat64())
		}
		logit := float64(g.biasTerm) + float64(tensor.Dot(g.denseW, drow))
		for ti := range spec.Cardinalities {
			idx := int32(g.zipfs[ti].Next())
			b.Indices[ti][i] = idx
			logit += float64(g.tableFx[ti][int(idx)%labelBuckets]) / float64(len(spec.Cardinalities))
		}
		p := 1.0 / (1.0 + math.Exp(-logit))
		if g.rng.Float64() < p {
			b.Labels[i] = 1
		}
	}
	return b
}
