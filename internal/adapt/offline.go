package adapt

import (
	"fmt"
	"sort"

	"dlrmcomp/internal/hybrid"
)

// OfflineResult is the output of the offline analysis phase (§III-A): one
// classification, error bound, and encoder choice per embedding table.
type OfflineResult struct {
	Stats      []PatternStats
	Classes    []Class
	EBs        []float32
	Modes      []hybrid.Mode
	Candidates [][]hybrid.Candidate
}

// OfflineOptions configures OfflineAnalysis.
type OfflineOptions struct {
	// SampleEB is the probe error bound used for homogenization analysis
	// (the paper samples with 0.01 on Kaggle and 0.005 on Terabyte).
	SampleEB float32
	// Thresholds classify tables; zero value uses DefaultThresholds.
	Thresholds Thresholds
	// EBConfig maps classes to bounds; zero value uses PaperEBConfig.
	EBConfig EBConfig
	// NetBandwidth (bytes/s) drives Eq. (2) compressor selection.
	NetBandwidth float64
	// SelectEncoders runs Algorithm 2 (the timed per-table encoder choice)
	// when true; otherwise every table uses Auto. It reproduces the paper's
	// offline selection for cmd/offline and examples/codec_explorer, the
	// only callers that set it. It is not a trainer speed feature: since
	// Auto's per-chunk choice costs one histogram, the trainer runs Auto and
	// nothing plumbs Modes into it.
	SelectEncoders bool
}

// OfflineAnalysis runs Algorithm 1 (classification) and optionally
// Algorithm 2 (encoder selection) on per-table sampled lookup batches.
// samples[t] is a row-major batch for table t with row length dim.
func OfflineAnalysis(samples [][]float32, dim int, opts OfflineOptions) (*OfflineResult, error) {
	if opts.SampleEB <= 0 {
		opts.SampleEB = 0.01
	}
	if opts.Thresholds == (Thresholds{}) {
		opts.Thresholds = DefaultThresholds()
	}
	if opts.EBConfig == (EBConfig{}) {
		opts.EBConfig = PaperEBConfig()
	}
	if opts.NetBandwidth <= 0 {
		opts.NetBandwidth = 4e9 // the paper's 4 GB/s all-to-all
	}
	if err := opts.Thresholds.Validate(); err != nil {
		return nil, err
	}
	if err := opts.EBConfig.Validate(); err != nil {
		return nil, err
	}

	res := &OfflineResult{
		Stats:      make([]PatternStats, len(samples)),
		Classes:    make([]Class, len(samples)),
		EBs:        make([]float32, len(samples)),
		Modes:      make([]hybrid.Mode, len(samples)),
		Candidates: make([][]hybrid.Candidate, len(samples)),
	}
	for t, sample := range samples {
		st, err := AnalyzeTable(t, sample, dim, opts.SampleEB)
		if err != nil {
			return nil, fmt.Errorf("table %d: %w", t, err)
		}
		res.Stats[t] = st
		res.Classes[t] = Classify(st.HomoIndex, opts.Thresholds)
		res.EBs[t] = opts.EBConfig.For(res.Classes[t])
		if opts.SelectEncoders {
			mode, cands, err := hybrid.SelectEncoder(sample, dim, res.EBs[t], opts.NetBandwidth)
			if err != nil {
				return nil, fmt.Errorf("table %d: %w", t, err)
			}
			res.Modes[t] = mode
			res.Candidates[t] = cands
		} else {
			res.Modes[t] = hybrid.Auto
		}
	}
	return res, nil
}

// RankedByHomoIndex returns the table stats sorted ascending by the paper's
// tabulated pattern ratio (Tables III/IV ordering).
func (r *OfflineResult) RankedByHomoIndex() []PatternStats {
	out := make([]PatternStats, len(r.Stats))
	copy(out, r.Stats)
	sort.Slice(out, func(i, j int) bool {
		if out[i].PatternRatio != out[j].PatternRatio {
			return out[i].PatternRatio < out[j].PatternRatio
		}
		return out[i].TableID < out[j].TableID
	})
	return out
}

// ClassCounts returns how many tables landed in each class.
func (r *OfflineResult) ClassCounts() (large, medium, small int) {
	for _, c := range r.Classes {
		switch c {
		case ClassLarge:
			large++
		case ClassSmall:
			small++
		default:
			medium++
		}
	}
	return
}
