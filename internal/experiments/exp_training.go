package experiments

import (
	"fmt"
	"strings"

	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/scenario"
)

func init() {
	register("fig1", "Training time breakdown without compression", runFig1)
	register("fig12", "End-to-end training breakdown with compression", runFig12)
	register("fig8", "Accuracy under different compression methods", runFig8)
}

// clusterScale returns the rank count and global batch of the timing
// experiments (the paper uses 32 GPUs, batch 2048 on Terabyte).
func clusterScale(quick bool) (ranks, batch int) {
	if quick {
		return 8, 256
	}
	return 32, 2048
}

// timingSteps is the step budget of the timing experiments.
func timingSteps(quick bool) int {
	if quick {
		return 2
	}
	return 3
}

// runFig1 reproduces Fig. 1: the time breakdown of uncompressed DLRM
// training at cluster scale, showing all-to-all dominating (> 60%).
func runFig1(opts Options) (*Result, error) {
	ranks, batch := clusterScale(opts.Quick)
	steps := timingSteps(opts.Quick)
	sp := timingSpec(criteo.TerabyteSpec(), opts)
	sp.Ranks, sp.Batch, sp.Steps = ranks, batch, steps
	results, err := scenario.Sweep([]scenario.Spec{sp})
	if err != nil {
		return nil, err
	}
	bd := results[0].SimTime
	a2aShare := bd.Share("fwd-a2a") + bd.Share("bwd-a2a")
	text := fmt.Sprintf("uncompressed DLRM training, %d ranks, global batch %d, %d steps\n\n%s\nall-to-all share: %.1f%% (paper: >60%%)\n",
		ranks, batch, steps, bd.String(), 100*a2aShare)
	return &Result{Text: text}, nil
}

// runFig12 reproduces Fig. 12: end-to-end breakdown with the hybrid
// compressor on the forward all-to-all, and the resulting communication and
// end-to-end speedups on both datasets.
func runFig12(opts Options) (*Result, error) {
	ranks, batch := clusterScale(opts.Quick)
	steps := timingSteps(opts.Quick)
	var sb strings.Builder
	for _, base := range []criteo.Spec{criteo.KaggleSpec(), criteo.TerabyteSpec()} {
		eb := probeEB(base)
		mk := func(codecName string) scenario.Spec {
			sp := timingSpec(base, opts)
			sp.Ranks, sp.Batch, sp.Steps = ranks, batch, steps
			sp.Codec = codecName
			if codecName != "none" {
				sp.ErrorBound = float64(eb)
			}
			return sp
		}
		results, err := scenario.Sweep([]scenario.Spec{mk("none"), mk("hybrid")})
		if err != nil {
			return nil, err
		}
		baseBD, compBD := results[0].SimTime, results[1].SimTime
		cr := results[1].CompressionRatio
		commBase := baseBD["fwd-a2a"]
		commComp := compBD["fwd-a2a"] + compBD["compress"] + compBD["decompress"]
		commSpeedup := float64(commBase) / float64(commComp)
		e2eSpeedup := float64(baseBD.Total()) / float64(compBD.Total())
		dataName := criteo.ScaledSpec(base, scenario.DefaultScale(opts.Quick)).Name
		fmt.Fprintf(&sb, "dataset %s (CR %.1f)\n-- baseline --\n%s\n-- with hybrid compression --\n%s\n", dataName, cr, baseBD.String(), compBD.String())
		fmt.Fprintf(&sb, "fwd all-to-all speedup: %.2fx   end-to-end speedup: %.2fx\n(paper: 6.22x/1.30x on Kaggle, 8.6x/1.38x on Terabyte)\n\n",
			commSpeedup, e2eSpeedup)
	}
	return &Result{Text: sb.String()}, nil
}

// runFig8 reproduces Fig. 8: accuracy and delta-accuracy of FP32 baseline,
// FP16, FP8, and the error-bounded compressor (fixed global eb 0.02).
func runFig8(opts Options) (*Result, error) {
	steps := 300
	if opts.Quick {
		steps = 50
	}
	evalN := 4000
	if opts.Quick {
		evalN = 1000
	}

	configs := []struct {
		name  string
		codec string
		eb    float64
	}{
		{"fp32-baseline", "none", 0},
		{"fp16", "fp16", 0},
		{"fp8-e4m3", "fp8", 0},
		{"ours-eb0.02", "hybrid", 0.02},
	}
	specs := make([]scenario.Spec, len(configs))
	for i, cf := range configs {
		sp := expSpec(criteo.KaggleSpec(), 16, opts)
		sp.Ranks, sp.Batch, sp.Steps, sp.Eval = 4, 128, steps, evalN
		sp.Codec, sp.ErrorBound = cf.codec, cf.eb
		specs[i] = sp
	}
	results, err := scenario.Sweep(specs)
	if err != nil {
		return nil, err
	}

	var rows [][]string
	baseAcc := results[0].Accuracy
	for i, cf := range configs {
		res := results[i]
		crCell := "-"
		if cf.codec != "none" {
			crCell = fmt.Sprintf("%.2f", res.CompressionRatio)
		}
		rows = append(rows, []string{
			cf.name,
			fmt.Sprintf("%.4f", res.Accuracy),
			fmt.Sprintf("%+.4f%%", 100*(res.Accuracy-baseAcc)),
			fmt.Sprintf("%.4f", res.LogLoss),
			fmt.Sprintf("%.4f", res.Losses[len(res.Losses)-1]),
			crCell,
		})
	}
	text := table([]string{"method", "accuracy", "delta-acc", "logloss", "train-loss", "CR"}, rows) +
		"\nPaper criterion: accuracy loss within 0.02% is acceptable; the error-bounded\ncompressor stays within it while compressing far beyond FP16/FP8's fixed 2x/4x.\n"
	return &Result{Text: text}, nil
}
