package experiments

import (
	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/scenario"
)

// expSpec is the standard experiment scenario over a dataset: the
// quick/full dataset scale, a dim-wide model with the repo-default MLPs,
// the suite's model-seed offset, and the standard warm length for probe
// environments. Experiments layer their cluster shape, codec, and step
// budget on top.
func expSpec(base criteo.Spec, dim int, opts Options) scenario.Spec {
	return scenario.Spec{
		Dataset:   base.Name,
		Scale:     scenario.DefaultScale(opts.Quick),
		Dim:       dim,
		ModelSeed: base.Seed + 100,
		WarmSteps: scenario.DefaultWarmSteps(opts.Quick),
	}
}

// timingSpec is the paper-scale timing scenario (sparse feature size 64,
// the reference-arch MLPs, the calibrated sustained device rate, and the
// "other compute" share that makes breakdown shares match Fig. 1); quick
// mode shrinks the model so CI stays fast.
func timingSpec(base criteo.Spec, opts Options) scenario.Spec {
	sp := scenario.Spec{
		Dataset:            base.Name,
		Scale:              scenario.DefaultScale(opts.Quick),
		Dim:                64,
		BottomMLP:          []int{512, 256},
		TopMLP:             []int{512, 256},
		Device:             "paper",
		OtherComputeFactor: 0.8,
		ModelSeed:          base.Seed + 7,
	}
	if opts.Quick {
		sp.Dim = 16
		sp.BottomMLP = []int{128, 64}
		sp.TopMLP = []int{128, 64}
	}
	return sp
}

// analyzeHomo is adapt.AnalyzeTable re-exported for the experiment drivers.
func analyzeHomo(tableID int, sample []float32, dim int, eb float32) (adapt.PatternStats, error) {
	return adapt.AnalyzeTable(tableID, sample, dim, eb)
}
