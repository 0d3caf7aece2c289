package main

import (
	"fmt"
	"math"
	"time"

	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/scenario"
)

const (
	codecRows    = 2048 // rows per table in one lookup batch
	codecEB      = 0.01
	codecBatches = 4 // distinct lookup batches a run cycles through
	codecWarm    = 10
	codecTimed   = 500
)

// baseSpec is the dataset and embedding shape every workload shares.
func baseSpec(seed uint64) scenario.Spec {
	return scenario.Spec{Dataset: "kaggle", Scale: 100, Dim: 32, Seed: seed}
}

var codecLookups = workload{
	name: "codec-lookups",
	why:  "the paper's compressor alone on trained lookup batches: hybrid/quant/vlz/huffman do all the work, so codec changes show here and nowhere else",
	run:  runCodecLookups,
}

// codecInst is one set-up of the codec workload: lookup batches sampled
// from a warmed probe model, one codec per table, and every buffer a round
// writes into.
type codecInst struct {
	dim     int
	codecs  []*hybrid.Codec
	lookups [][][]float32 // [batch][table] values
	frames  [][][]byte    // [batch][table] last frame
	recon   [][][]float32 // [batch][table] last reconstruction
	encMs   []float64     // per op, filled by round
	decMs   []float64
	buildMs float64
}

func setupCodec(seed uint64, warm int) (*codecInst, error) {
	s := baseSpec(seed)
	s.WarmSteps = 20
	t0 := time.Now()
	env, err := s.BuildEnv()
	if err != nil {
		return nil, err
	}
	in := &codecInst{dim: env.Dim, buildMs: msSince(t0)}
	for b := 0; b < codecBatches; b++ {
		lk, _ := env.SampleLookups(codecRows)
		in.lookups = append(in.lookups, lk)
		in.frames = append(in.frames, make([][]byte, len(lk)))
		rc := make([][]float32, len(lk))
		for t := range rc {
			rc[t] = make([]float32, len(lk[t]))
		}
		in.recon = append(in.recon, rc)
	}
	for range in.lookups[0] {
		in.codecs = append(in.codecs, hybrid.New(codecEB, hybrid.Auto))
	}
	in.size(warm)
	if _, failed := runOps(warm, 0, 1, nil, "", 0, in.round(nil)); failed > 0 {
		return nil, fmt.Errorf("codec-lookups: %d warm rounds failed", failed)
	}
	return in, nil
}

func (in *codecInst) size(ops int) {
	in.encMs, in.decMs = make([]float64, ops), make([]float64, ops)
}

// round returns the op: compress then decompress every table of batch
// i mod codecBatches. The decoded dim and a frame length that differs
// from the same batch's previous frame fail the op; the values are checked
// after the phase (verify), outside the timed region.
func (in *codecInst) round(tr *tracer) func(_, i, root int) error {
	return func(_, i, root int) error {
		b := i % codecBatches
		var err error
		in.encMs[i] = tr.timed("hybrid.CompressAppend", i, root, func() {
			for t, c := range in.codecs {
				prev := len(in.frames[b][t])
				in.frames[b][t], err = c.CompressAppend(in.frames[b][t][:0], in.lookups[b][t], in.dim)
				if err == nil && prev > 0 && len(in.frames[b][t]) != prev {
					err = fmt.Errorf("table %d: frame of %d bytes, was %d for the same input", t, len(in.frames[b][t]), prev)
				}
				if err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		in.decMs[i] = tr.timed("hybrid.DecompressInto", i, root, func() {
			for t, c := range in.codecs {
				var dim int
				dim, err = c.DecompressInto(in.recon[b][t], in.frames[b][t])
				if err == nil && dim != in.dim {
					err = fmt.Errorf("table %d: decoded dim %d, want %d", t, dim, in.dim)
				}
				if err != nil {
					return
				}
			}
		})
		return err
	}
}

// rawBytes is what one round moves through each direction of the codec.
func (in *codecInst) rawBytes() float64 {
	return float64(len(in.codecs) * codecRows * in.dim * 4)
}

// verify checks every value of the last reconstruction of every batch
// against the error bound and returns the largest error over the bound.
func (in *codecInst) verify(r *passResult) float64 {
	var worst float64
	for b := range in.lookups {
		for t, src := range in.lookups[b] {
			for k, v := range src {
				worst = max(worst, math.Abs(float64(in.recon[b][t][k]-v)))
			}
		}
	}
	if worst > codecEB*(1+1e-4) {
		r.failf("reconstruction error %g exceeds the bound %g", worst, codecEB)
	}
	return worst / codecEB
}

// frameStats returns raw/frame bytes, the frame bytes of one round, and
// the share of frames the vector-LZ encoder won.
func (in *codecInst) frameStats() (ratio, frameBytes, vlzShare float64, err error) {
	var frames, vlz int
	for b := range in.frames {
		for _, f := range in.frames[b] {
			frameBytes += float64(len(f))
			sub, err := hybrid.SubEncoderOf(f)
			if err != nil {
				return 0, 0, 0, err
			}
			frames++
			if sub == "vlz" {
				vlz++
			}
		}
	}
	frameBytes /= codecBatches
	return in.rawBytes() / frameBytes, frameBytes, float64(vlz) / float64(frames), nil
}

func runCodecLookups(p *pass) (*passResult, error) {
	warm := p.ops(codecWarm)
	in, setupS, err := medianSetup(p.setups,
		func() (*codecInst, error) { return setupCodec(p.cfg.seed, warm) },
		func(*codecInst) {})
	if err != nil {
		return nil, err
	}
	in.size(p.pool(codecTimed))

	r := newPassResult()
	r.warm = countPhase(warm, 0)
	var log *opLog
	var failed int
	p.beginTimed()
	used := measured(func() {
		log, failed = runOps(len(in.encMs), p.deadline(), 1, p.tr, "codec.round", 0, in.round(p.tr))
	})
	p.endTimed(r, log, 0)
	n := log.n()
	in.encMs, in.decMs = in.encMs[:n], in.decMs[:n]
	r.timed = countPhase(n, failed)
	r.timing(log, float64(len(in.codecs)*codecRows))
	overEB := in.verify(r)
	ratio, frameBytes, vlzShare, err := in.frameStats()
	if err != nil {
		return nil, err
	}

	// MB/s per segment: raw bytes over the time spent inside each call.
	rate := func(ms []float64) (float64, []float64) {
		segs := log.perSegment(func(lo, hi int) float64 {
			return in.rawBytes() * float64(hi-lo) / 1e6 / (sum(ms[lo:hi]) / 1e3)
		})
		return median(segs), segs
	}
	enc, encSegs := rate(in.encMs)
	dec, decSegs := rate(in.decMs)
	r.e2e.set("setup_s", setupS)
	r.e2e.set("compression_ratio", ratio)
	r.e2e.set("encode_mb_per_s", enc, encSegs...)
	r.e2e.set("decode_mb_per_s", dec, decSegs...)
	r.e2e.set("alloc_kb_per_op", float64(used.bytes)/1e3/float64(n))
	if p.traced() {
		m := r.layer
		m.set("scenario.build_ms", in.buildMs)
		m.set("hybrid.encode_ms_per_step", median(in.encMs))
		m.set("hybrid.decode_ms_per_step", median(in.decMs))
		m.set("hybrid.frame_bytes_per_step", frameBytes)
		m.set("hybrid.vlz_frame_share", vlzShare)
		m.set("hybrid.allocs_per_call", float64(used.mallocs)/float64(2*n*len(in.codecs)))
		m.set("hybrid.max_err_over_eb", overEB)
	}
	return r, nil
}
