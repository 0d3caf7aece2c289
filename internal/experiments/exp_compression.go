package experiments

import (
	"fmt"
	"strings"
	"time"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/cuszlike"
	"dlrmcomp/internal/fzgpulike"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/lz4like"
	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/quant"
	"dlrmcomp/internal/scenario"
	"dlrmcomp/internal/vlz"
)

func init() {
	register("fig11", "Compression ratio, throughput, and communication speedup", runFig11)
	register("table5", "Per-table compression ratio of all compressors", runTable5)
	register("table6", "Vector-LZ window-size sweep", runTable6)
	register("fig13", "Data features of two representative EMB tables", runFig13)
	register("fig14", "Lookup distribution across training phases", runFig14)
	register("fig15", "Buffer optimization speedup", runFig15)
	register("fig4", "Vector homogenization and false prediction", runFig4)
	register("table1", "Characteristics of representative EMB tables", runTable1)
}

// codecSet returns the comparison set of Fig. 11 / Table V with the paper's
// per-dataset probe error bound.
func codecSet(eb float32) []codec.Codec {
	return []codec.Codec{
		cuszlike.New(eb, cuszlike.Lorenzo1D),
		fzgpulike.New(eb),
		hybrid.New(eb, hybrid.VectorLZ),
		hybrid.New(eb, hybrid.Entropy),
		lz4like.LZSSCodec{},
		lz4like.DeflateCodec{},
		hybrid.New(eb, hybrid.Auto),
	}
}

func probeEB(spec criteo.Spec) float32 {
	if spec.DefaultBatch >= 2048 || strings.HasPrefix(spec.Name, "terabyte") {
		return 0.005
	}
	return 0.01
}

// runFig11 reproduces Fig. 11: average compression ratio, measured Go
// throughput, paper-calibrated throughput, and the Eq. (2) all-to-all
// speedup at 4 GB/s for every compressor on both datasets.
func runFig11(opts Options) (*Result, error) {
	var sb strings.Builder
	rates := netmodel.PaperCodecRates()
	for _, spec := range []criteo.Spec{criteo.KaggleSpec(), criteo.TerabyteSpec()} {
		e, err := expSpec(spec, 16, opts).BuildEnv()
		if err != nil {
			return nil, err
		}
		batch := spec.DefaultBatch
		if opts.Quick {
			batch = 256
		}
		eb := probeEB(spec)

		var rows [][]string
		for _, c := range codecSet(eb) {
			// Per-table compression, aggregated over the dataset (the
			// pipeline compresses each table's block separately).
			var rawBytes, wireBytes int64
			var compDur, decompDur time.Duration
			samples, _ := e.SampleLookups(batch)
			for _, sample := range samples {
				start := time.Now()
				frame, err := c.CompressAppend(nil, sample, e.Dim)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", c.Name(), err)
				}
				compDur += time.Since(start)
				recon := make([]float32, len(sample))
				start = time.Now()
				if _, err := c.DecompressInto(recon, frame); err != nil {
					return nil, fmt.Errorf("%s: %w", c.Name(), err)
				}
				decompDur += time.Since(start)
				rawBytes += int64(len(sample) * 4)
				wireBytes += int64(len(frame))
			}
			cr := float64(rawBytes) / float64(wireBytes)
			goTc := float64(rawBytes) / compDur.Seconds()
			goTd := float64(rawBytes) / decompDur.Seconds()
			calib := rates[c.Name()]
			sp := hybrid.Speedup(cr, 4e9, hybrid.Throughput{Compress: calib.Compress, Decompress: calib.Decompress})
			rows = append(rows, []string{
				c.Name(),
				fmt.Sprintf("%.2f", cr),
				fmt.Sprintf("%.2f/%.2f", goTc/1e9, goTd/1e9),
				fmt.Sprintf("%.1f/%.1f", calib.Compress/1e9, calib.Decompress/1e9),
				fmt.Sprintf("%.2fx", sp),
			})
		}
		fmt.Fprintf(&sb, "dataset %s (batch %d, eb %.3g)\n", spec.Name, batch, eb)
		sb.WriteString(table([]string{"compressor", "CR", "Go GB/s c/d", "calib GB/s c/d", "a2a speedup@4GB/s"}, rows))
		sb.WriteByte('\n')
	}
	return &Result{Text: sb.String()}, nil
}

// runTable5 reproduces Table V: per-table compression ratios per compressor
// on both datasets, with the hybrid column taking the per-table best.
func runTable5(opts Options) (*Result, error) {
	var sb strings.Builder
	for _, spec := range []criteo.Spec{criteo.KaggleSpec(), criteo.TerabyteSpec()} {
		e, err := expSpec(spec, 16, opts).BuildEnv()
		if err != nil {
			return nil, err
		}
		batch := spec.DefaultBatch
		if opts.Quick {
			batch = 128
		}
		eb := probeEB(spec)
		codecs := []codec.Codec{
			cuszlike.New(eb, cuszlike.Lorenzo1D),
			fzgpulike.New(eb),
			hybrid.New(eb, hybrid.VectorLZ),
			hybrid.New(eb, hybrid.Entropy),
			lz4like.LZSSCodec{},
			lz4like.DeflateCodec{},
			hybrid.New(eb, hybrid.Auto),
		}
		samples, _ := e.SampleLookups(batch)
		var rows [][]string
		sums := make([]float64, len(codecs))
		for t, sample := range samples {
			row := []string{fmt.Sprintf("%d", t)}
			best := 0.0
			bestCol := -1
			crs := make([]float64, len(codecs))
			for ci, c := range codecs {
				frame, err := c.CompressAppend(nil, sample, e.Dim)
				if err != nil {
					return nil, err
				}
				crs[ci] = codec.Ratio(len(sample), frame)
				sums[ci] += crs[ci]
				if crs[ci] > best {
					best, bestCol = crs[ci], ci
				}
			}
			for ci, cr := range crs {
				cell := fmt.Sprintf("%.2f", cr)
				if ci == bestCol {
					cell += "*"
				}
				row = append(row, cell)
			}
			rows = append(rows, row)
		}
		avg := []string{"avg"}
		for _, s := range sums {
			avg = append(avg, fmt.Sprintf("%.2f", s/float64(len(samples))))
		}
		rows = append(rows, avg)
		header := []string{"tab"}
		for _, c := range codecs {
			header = append(header, c.Name())
		}
		fmt.Fprintf(&sb, "dataset %s (batch %d, eb %.3g; * = best)\n", spec.Name, batch, eb)
		sb.WriteString(table(header, rows))
		sb.WriteByte('\n')
	}
	return &Result{Text: sb.String()}, nil
}

// runTable6 reproduces Table VI: vector-LZ compression-ratio improvement as
// the window grows 32 → 255, normalized to window 32.
func runTable6(opts Options) (*Result, error) {
	var sb strings.Builder
	windows := []int{32, 64, 128, 255}
	for _, spec := range []criteo.Spec{criteo.KaggleSpec(), criteo.TerabyteSpec()} {
		e, err := expSpec(spec, 16, opts).BuildEnv()
		if err != nil {
			return nil, err
		}
		batch := spec.DefaultBatch
		if opts.Quick {
			batch = 512
		}
		// Probe with a tight bound so distinct vectors stay distinct and
		// the window size (not homogenization) is what limits matching —
		// the regime of the paper's Table VI.
		eb := probeEB(spec) / 20
		samples, _ := e.SampleLookups(batch)

		base := 0.0
		row := []string{spec.Name}
		for _, w := range windows {
			var rawBytes, wireBytes int64
			for _, sample := range samples {
				codes := make([]int32, len(sample))
				quant.New(eb).Quantize(codes, sample)
				frame, err := vlz.New(w).AppendEncode(nil, codes, e.Dim)
				if err != nil {
					return nil, err
				}
				rawBytes += int64(len(sample) * 4)
				wireBytes += int64(len(frame))
			}
			cr := float64(rawBytes) / float64(wireBytes)
			if base == 0 {
				base = cr
			}
			row = append(row, fmt.Sprintf("%.2fx", cr/base))
		}
		sb.WriteString(table([]string{"dataset", "w=32", "w=64", "w=128", "w=255"}, [][]string{row}))
		sb.WriteByte('\n')
	}
	return &Result{Text: sb.String()}, nil
}

// runFig13 reproduces Fig. 13: matched-pattern counts and value-distribution
// shape for two representative Terabyte tables — one entropy-friendly
// (concentrated Gaussian) and one LZ-friendly (few unique vectors).
func runFig13(opts Options) (*Result, error) {
	e, err := expSpec(criteo.TerabyteSpec(), 16, opts).BuildEnv()
	if err != nil {
		return nil, err
	}
	batch := 2048
	if opts.Quick {
		batch = 512
	}
	eb := probeEB(criteo.TerabyteSpec())
	samples, _ := e.SampleLookups(batch)

	var rows [][]string
	for _, t := range pickRepresentativeTables(e, samples, eb) {
		sample := samples[t]
		codes := make([]int32, len(sample))
		quant.New(eb).Quantize(codes, sample)
		st, err := vlz.New(vlz.DefaultWindow).EncodeStats(codes, e.Dim)
		if err != nil {
			return nil, err
		}
		_, std, kurt := moments(sample)
		huffFrame := hybrid.New(eb, hybrid.Entropy)
		hf, err := huffFrame.Compress(sample, e.Dim)
		if err != nil {
			return nil, err
		}
		vf, err := hybrid.New(eb, hybrid.VectorLZ).Compress(sample, e.Dim)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", t),
			fmt.Sprintf("%d/%d", st.Matched, st.Rows),
			fmt.Sprintf("%d", st.UniqueRows),
			fmt.Sprintf("%.4f", std),
			fmt.Sprintf("%.2f", kurt),
			fmt.Sprintf("%.2f", codec.Ratio(len(sample), vf)),
			fmt.Sprintf("%.2f", codec.Ratio(len(sample), hf)),
		})
	}
	text := table([]string{"tab", "matched", "unique", "std", "kurtosis", "CR vlz", "CR huffman"}, rows) +
		"\nHigh matched/unique disparity favors vector-LZ; concentrated (high-kurtosis)\nvalues favor the entropy coder — the contrast of Fig. 13.\n"
	return &Result{Text: text}, nil
}

// pickRepresentativeTables selects the most LZ-friendly and the most
// entropy-friendly tables of the sampled batch.
func pickRepresentativeTables(e *scenario.Env, samples [][]float32, eb float32) []int {
	bestLZ, bestH := 0, 0
	var bestLZScore, bestHScore float64
	for t, sample := range samples {
		codes := make([]int32, len(sample))
		quant.New(eb).Quantize(codes, sample)
		st, err := vlz.New(vlz.DefaultWindow).EncodeStats(codes, e.Dim)
		if err != nil {
			continue
		}
		lzScore := float64(st.Matched) / float64(st.Rows+1)
		if lzScore > bestLZScore {
			bestLZScore, bestLZ = lzScore, t
		}
		_, _, kurt := moments(sample)
		if kurt > bestHScore {
			bestHScore, bestH = kurt, t
		}
	}
	if bestLZ == bestH {
		bestH = (bestLZ + 1) % len(samples)
	}
	return []int{bestH, bestLZ}
}

// runFig14 reproduces Fig. 14: the lookup value distribution is stable
// across training phases, which keeps the compression ratio steady.
func runFig14(opts Options) (*Result, error) {
	sp := expSpec(criteo.TerabyteSpec(), 16, opts)
	sp.WarmSteps = 0 // sample from initialization; the phases below train
	e, err := sp.BuildEnv()
	if err != nil {
		return nil, err
	}

	phases := 4
	stepsPerPhase := scenario.DefaultWarmSteps(opts.Quick) / phases
	if stepsPerPhase == 0 {
		stepsPerPhase = 1
	}
	batch := 512
	if opts.Quick {
		batch = 256
	}
	eb := probeEB(criteo.TerabyteSpec())
	hybridC := hybrid.New(eb, hybrid.Auto)

	var rows [][]string
	for phase := 0; phase <= phases; phase++ {
		samples, _ := e.SampleLookups(batch)
		stream := concat(samples)
		mean, std, kurt := moments(stream)
		var rawBytes, wireBytes int64
		for _, s := range samples {
			frame, err := hybridC.Compress(s, e.Dim)
			if err != nil {
				return nil, err
			}
			rawBytes += int64(len(s) * 4)
			wireBytes += int64(len(frame))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d%%", phase*100/phases),
			fmt.Sprintf("%.4f", mean),
			fmt.Sprintf("%.4f", std),
			fmt.Sprintf("%.2f", kurt),
			fmt.Sprintf("%.2f", float64(rawBytes)/float64(wireBytes)),
		})
		e.Warm(stepsPerPhase)
	}
	text := table([]string{"phase", "mean", "std", "kurtosis", "CR"}, rows) +
		"\nDistribution moments and CR stay nearly constant across training (Fig. 14).\n"
	return &Result{Text: text}, nil
}

// runFig15 reproduces Fig. 15: buffer-optimization speedup across chunk
// counts and chunk sizes, from the modelled GPU launch cost. (What the
// optimization buys this repo's trainer — fused send frames filled by the
// codec workers — is host time, measured by bench/'s train-comm8.)
func runFig15(Options) (*Result, error) {
	var rows [][]string
	m := defaultLaunchModel()
	for _, sizeMB := range []int64{8, 16, 32, 64} {
		row := []string{fmt.Sprintf("%dMB", sizeMB)}
		for _, k := range []int{2, 4, 8, 16} {
			row = append(row, fmt.Sprintf("%.2fx", m.speedup(sizeMB<<20, k)))
		}
		rows = append(rows, row)
	}
	text := "single-launch speedup over per-chunk launches (analytic, Fig. 15)\n" +
		table([]string{"total", "2 chunks", "4 chunks", "8 chunks", "16 chunks"}, rows)
	return &Result{Text: text}, nil
}

// launchModel captures the GPU execution costs the buffer optimization
// (§III-E, Fig. 7) targets: per-kernel launch overhead plus a utilization
// ramp for small chunks, which is what makes one batched launch writing
// straight into the send buffer up to ~2× faster on many small chunks and
// nearly neutral on few huge ones.
type launchModel struct {
	// launchOverhead is the fixed cost of one kernel launch.
	launchOverhead time.Duration
	// rate is the codec's saturated throughput (bytes/s).
	rate float64
	// rampBytes controls the utilization ramp: a chunk of b bytes runs at
	// b/(b+rampBytes) of the saturated rate, so small chunks underutilize
	// the GPU and huge chunks approach full speed.
	rampBytes int64
	// memBandwidth models the extra device-to-device memcpy the unoptimized
	// path pays to pack per-chunk outputs into the send buffer.
	memBandwidth float64
}

// defaultLaunchModel calibrates to an A100-class device.
func defaultLaunchModel() launchModel {
	return launchModel{
		launchOverhead: netmodel.KernelLaunchOverhead,
		rate:           50e9,
		rampBytes:      512 << 10,
		memBandwidth:   1.3e12,
	}
}

// chunkTime is the kernel time for one chunk of the given size.
func (m launchModel) chunkTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	util := float64(bytes) / float64(bytes+m.rampBytes)
	return time.Duration(float64(bytes) / (m.rate * util) * float64(time.Second))
}

// chunkedTime models the unoptimized path: one launch per chunk, chunks run
// sequentially (separate kernels on one stream), plus the packing memcpy.
func (m launchModel) chunkedTime(totalBytes int64, numChunks int) time.Duration {
	per := totalBytes / int64(numChunks)
	var t time.Duration
	for i := 0; i < numChunks; i++ {
		t += m.launchOverhead + m.chunkTime(per)
	}
	// Pack compressed outputs into the send buffer (assume ~25% of input
	// volume survives compression; only that is copied).
	t += time.Duration(float64(totalBytes)*0.25/m.memBandwidth*float64(time.Second)) * 2 // D2D read+write
	return t
}

// singleLaunchTime models the optimized path: one launch compressing
// everything at (near-)full utilization, writing directly to the send
// buffer — no packing copy.
func (m launchModel) singleLaunchTime(totalBytes int64) time.Duration {
	return m.launchOverhead + m.chunkTime(totalBytes)
}

// speedup returns chunkedTime / singleLaunchTime — the y-axis of Fig. 15.
func (m launchModel) speedup(totalBytes int64, numChunks int) float64 {
	return float64(m.chunkedTime(totalBytes, numChunks)) / float64(m.singleLaunchTime(totalBytes))
}

// runFig4 illustrates false prediction and vector homogenization on a tiny
// hand-built batch, mirroring Fig. 4's walk-through.
func runFig4(_ Options) (*Result, error) {
	// Rows: A, A', B, A — where A' is A plus sub-error-bound noise.
	a := []float32{0.50, -0.30, 0.20, 0.70}
	aPrime := []float32{0.506, -0.296, 0.204, 0.694}
	b := []float32{-0.90, 0.10, 0.40, -0.20}
	batch := append(append(append(append([]float32{}, a...), aPrime...), b...), a...)
	dim := 4
	eb := float32(0.01)

	codes := make([]int32, len(batch))
	quant.New(eb).Quantize(codes, batch)
	var sb strings.Builder
	sb.WriteString("quantized rows (eb 0.01):\n")
	for r := 0; r < 4; r++ {
		fmt.Fprintf(&sb, "  row %d: %v\n", r, codes[r*dim:(r+1)*dim])
	}
	sb.WriteString("rows 0 and 1 homogenize to identical codes; row 3 repeats row 0.\n\n")

	c := cuszlike.New(eb, cuszlike.Lorenzo2D)
	rawBits, residBits, err := c.ResidualEntropy(batch, dim)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, "2x2 Lorenzo prediction: raw-code entropy %.3f bits -> residual entropy %.3f bits\n", rawBits, residBits)
	sb.WriteString("prediction RAISES entropy on embedding batches (false prediction), because\nidentical vectors sit next to different neighbors.\n")
	return &Result{Text: sb.String()}, nil
}

// runTable1 reproduces Table I: characteristics of representative Kaggle
// tables — false prediction, violent vector homogenization, and Gaussian
// value distribution.
func runTable1(opts Options) (*Result, error) {
	e, err := expSpec(criteo.KaggleSpec(), 16, opts).BuildEnv()
	if err != nil {
		return nil, err
	}
	batch := 128
	eb := float32(0.01)
	samples, _ := e.SampleLookups(batch)

	var rows [][]string
	for _, t := range []int{1, 3, 4} {
		sample := samples[t]
		c := cuszlike.New(eb, cuszlike.Lorenzo2D)
		rawBits, residBits, err := c.ResidualEntropy(sample, e.Dim)
		if err != nil {
			return nil, err
		}
		falsePred := residBits > rawBits
		stats, err := analyzeHomo(t, sample, e.Dim, eb)
		if err != nil {
			return nil, err
		}
		violent := stats.HomoIndex > 0.3
		_, _, kurt := moments(sample)
		gaussian := kurt > -0.5 // uniform ≈ -1.2, Gaussian ≈ 0
		rows = append(rows, []string{
			fmt.Sprintf("%d", t),
			check(falsePred), check(violent), check(gaussian),
			fmt.Sprintf("%.2f", stats.HomoIndex),
			fmt.Sprintf("%.2f", kurt),
		})
	}
	text := table([]string{"EMB table", "false-pred", "violent-homog", "gaussian", "homo-idx", "kurtosis"}, rows)
	return &Result{Text: text}, nil
}

func check(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
