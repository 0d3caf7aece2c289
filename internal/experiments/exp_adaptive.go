package experiments

import (
	"fmt"
	"strings"

	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/scenario"
)

func init() {
	register("fig5", "Decay-function comparison", runFig5)
	register("fig6", "EMB table sizes of both datasets", runFig6)
	register("fig9", "Table-wise error-bound configuration", runFig9)
	register("fig10", "Decay vs abrupt drop", runFig10)
	register("table2", "Classification of EMB tables (L/M/S)", runTable2)
	register("table3", "Ranked Homo Index on Kaggle", runTable3)
	register("table4", "Ranked Homo Index on Terabyte", runTable4)
}

// runFig6 reproduces Fig. 6: the (unscaled) embedding-table cardinalities of
// both datasets, spanning single digits to tens of millions.
func runFig6(_ Options) (*Result, error) {
	var rows [][]string
	k, tb := criteo.KaggleCardinalities, criteo.TerabyteCardinalities
	for t := 0; t < len(k); t++ {
		rows = append(rows, []string{
			fmt.Sprintf("%d", t),
			fmt.Sprintf("%d", k[t]),
			fmt.Sprintf("%d", tb[t]),
		})
	}
	var minK, maxK = k[0], k[0]
	for _, v := range k {
		if v < minK {
			minK = v
		}
		if v > maxK {
			maxK = v
		}
	}
	text := table([]string{"table", "kaggle rows", "terabyte rows"}, rows) +
		fmt.Sprintf("\nKaggle spans %d to %d rows — the size diversity driving table-wise EBs.\n", minK, maxK)
	return &Result{Text: text}, nil
}

// homoAnalysis runs the offline analysis for one dataset over the standard
// warmed probe environment, returning the sampled lookups (dim 16) with it.
func homoAnalysis(base criteo.Spec, opts Options, batch int, eb float32) ([][]float32, *adapt.OfflineResult, error) {
	e, err := expSpec(base, 16, opts).BuildEnv()
	if err != nil {
		return nil, nil, err
	}
	samples, _ := e.SampleLookups(batch)
	res, err := adapt.OfflineAnalysis(samples, e.Dim, adapt.OfflineOptions{SampleEB: eb})
	if err != nil {
		return nil, nil, err
	}
	return samples, res, nil
}

// runTable2 reproduces Table II, the L/M/S classification of all 26 tables
// on both datasets (Algorithm 1), and adds the rest of the offline phase:
// the encoder Algorithm 2 picks for each table's sample at its class bound
// under the paper's 4 GB/s all-to-all. That choice is timed, so the encoder
// row can differ from run to run where the two encoders are close.
func runTable2(opts Options) (*Result, error) {
	var sb strings.Builder
	for _, spec := range []criteo.Spec{criteo.KaggleSpec(), criteo.TerabyteSpec()} {
		batch := spec.DefaultBatch
		if opts.Quick {
			batch = 128
		}
		samples, res, err := homoAnalysis(spec, opts, batch, probeEB(spec))
		if err != nil {
			return nil, err
		}
		header := []string{"EMB ID"}
		row := []string{spec.Name}
		encoders := []string{"encoder"}
		for t, cl := range res.Classes {
			header = append(header, fmt.Sprintf("%d", t))
			row = append(row, cl.String())
			mode, _, err := hybrid.SelectEncoder(samples[t], 16, res.EBs[t], 4e9)
			if err != nil {
				return nil, fmt.Errorf("table %d: %w", t, err)
			}
			enc := "vlz"
			if mode == hybrid.Entropy {
				enc = "huffman"
			}
			encoders = append(encoders, enc)
		}
		sb.WriteString(table(header, [][]string{row, encoders}))
		l, m, s := res.ClassCounts()
		fmt.Fprintf(&sb, "counts: L=%d M=%d S=%d\n\n", l, m, s)
	}
	return &Result{Text: sb.String()}, nil
}

func homoRankTable(spec criteo.Spec, opts Options, batch int, eb float32) (string, error) {
	_, res, err := homoAnalysis(spec, opts, batch, eb)
	if err != nil {
		return "", err
	}
	ranked := res.RankedByHomoIndex()
	limit := 9 // the paper lists representative tables only
	if limit > len(ranked) {
		limit = len(ranked)
	}
	var rows [][]string
	for _, st := range ranked[:limit] {
		rows = append(rows, []string{
			fmt.Sprintf("%d", st.TableID),
			fmt.Sprintf("%.3g", eb),
			fmt.Sprintf("%d", st.OrigUnique),
			fmt.Sprintf("%d", st.QuantUnique),
			fmt.Sprintf("%d", st.Batch),
			fmt.Sprintf("%.6f", st.PatternRatio),
			fmt.Sprintf("%.4f", st.HomoIndex),
			res.Classes[st.TableID].String(),
		})
	}
	return table([]string{"TAB. ID", "EB", "#Ori.Patterns", "#Quant.Patterns", "Batch", "ratio (paper col.)", "homo idx (Eq.1)", "class"}, rows), nil
}

// runTable3 reproduces Table III: ranked homogenization on Kaggle
// (batch 128, eb 0.01).
func runTable3(opts Options) (*Result, error) {
	text, err := homoRankTable(criteo.KaggleSpec(), opts, 128, 0.01)
	if err != nil {
		return nil, err
	}
	return &Result{Text: text}, nil
}

// runTable4 reproduces Table IV: ranked homogenization on Terabyte
// (batch 2048, eb 0.005).
func runTable4(opts Options) (*Result, error) {
	batch := 2048
	if opts.Quick {
		batch = 512
	}
	text, err := homoRankTable(criteo.TerabyteSpec(), opts, batch, 0.005)
	if err != nil {
		return nil, err
	}
	return &Result{Text: text}, nil
}

// adaptiveSpec is the shared scenario of the decay experiments: the 4-rank
// training cluster with the hybrid codec under an adaptive controller with
// uniform ClassMedium tables (the decay function under test is the
// variable).
func adaptiveSpec(base criteo.Spec, opts Options, schedule string, phase int, factor float64) scenario.Spec {
	sp := expSpec(base, 16, opts)
	sp.Ranks, sp.Batch = 4, 128
	sp.Steps = 300
	if opts.Quick {
		sp.Steps = 50
	}
	sp.Eval = 4000
	if opts.Quick {
		sp.Eval = 1000
	}
	sp.Codec, sp.ErrorBound = "hybrid", 0.03
	sp.Adaptive = true
	sp.Classes = "uniform"
	sp.Schedule = schedule
	sp.DecayPhase = phase
	sp.DecayFactor = factor
	return sp
}

// runFig5 reproduces Fig. 5: accuracy and compression ratio under different
// decay functions (stepwise wins on CR while preserving convergence).
func runFig5(opts Options) (*Result, error) {
	schedules := []adapt.Schedule{adapt.ScheduleNone, adapt.ScheduleLinear, adapt.ScheduleLogarithmic, adapt.ScheduleStepwise}
	phase := 150
	if opts.Quick {
		phase = 25
	}
	specs := make([]scenario.Spec, len(schedules))
	for i, sched := range schedules {
		specs[i] = adaptiveSpec(criteo.KaggleSpec(), opts, sched.String(), phase, 2)
	}
	results, err := scenario.Sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for i, sched := range schedules {
		rows = append(rows, []string{sched.String(),
			fmt.Sprintf("%.4f", results[i].Accuracy),
			fmt.Sprintf("%.2f", results[i].CompressionRatio)})
	}
	text := table([]string{"decay func", "accuracy", "CR"}, rows) +
		"\nDecaying schedules start at 2x the base EB, so they out-compress the fixed\nbound while converging — stepwise gives the best CR/accuracy trade (Fig. 5).\n"
	return &Result{Text: text}, nil
}

// runFig9 reproduces Fig. 9: table-wise EB configuration vs a fixed global
// EB — same accuracy, higher compression ratio (paper: up to 1.21x).
func runFig9(opts Options) (*Result, error) {
	var sb strings.Builder
	for _, spec := range []criteo.Spec{criteo.KaggleSpec(), criteo.TerabyteSpec()} {
		batch := spec.DefaultBatch
		if opts.Quick {
			batch = 128
		}
		// Fixed global EB = medium for all tables.
		global := adaptiveSpec(spec, opts, "none", 0, 1)
		// Table-wise EBs from the offline classification (run inside Build
		// over the standard warmed probe env).
		tableWise := adaptiveSpec(spec, opts, "none", 0, 1)
		tableWise.Classes = "offline"
		tableWise.OfflineBatch = batch
		tableWise.OfflineEB = float64(probeEB(spec))
		results, err := scenario.Sweep([]scenario.Spec{global, tableWise})
		if err != nil {
			return nil, err
		}
		accG, crG := results[0].Accuracy, results[0].CompressionRatio
		accT, crT := results[1].Accuracy, results[1].CompressionRatio
		rows := [][]string{
			{"fixed-global-0.03", fmt.Sprintf("%.4f", accG), fmt.Sprintf("%.2f", crG), "-"},
			{"table-wise-L/M/S", fmt.Sprintf("%.4f", accT), fmt.Sprintf("%.2f", crT),
				fmt.Sprintf("%.2fx", crT/crG)},
		}
		fmt.Fprintf(&sb, "dataset %s\n%s\n", spec.Name, table([]string{"config", "accuracy", "CR", "CR gain"}, rows))
	}
	sb.WriteString("Paper: table-wise EBs keep accuracy intact and raise CR up to 1.21x on Kaggle.\n")
	return &Result{Text: sb.String()}, nil
}

// runFig10 reproduces Fig. 10: gradual stepwise decay from 2x/3x the base
// bound vs an abrupt drop — decay converges better and compresses more.
func runFig10(opts Options) (*Result, error) {
	phase := 150
	if opts.Quick {
		phase = 25
	}
	cases := []struct {
		name     string
		schedule string
		factor   float64
	}{
		{"decay_2x", "stepwise", 2},
		{"drop_2x", "drop", 2},
		{"decay_3x", "stepwise", 3},
		{"drop_3x", "drop", 3},
	}
	specs := make([]scenario.Spec, len(cases))
	for i, cse := range cases {
		specs[i] = adaptiveSpec(criteo.KaggleSpec(), opts, cse.schedule, phase, cse.factor)
	}
	results, err := scenario.Sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for i, cse := range cases {
		rows = append(rows, []string{cse.name,
			fmt.Sprintf("%.4f", results[i].Accuracy),
			fmt.Sprintf("%.2f", results[i].CompressionRatio)})
	}
	text := table([]string{"strategy", "accuracy", "CR"}, rows) +
		"\nGradual decay tolerates a larger starting bound than an abrupt drop,\nyielding a further 1.09x/1.03x CR in the paper (1.32x/1.06x over fixed).\n"
	return &Result{Text: text}, nil
}
