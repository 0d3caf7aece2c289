package interaction

import (
	"fmt"
	"math"

	"dlrmcomp/internal/tensor"
)

// DotInteraction performs the pairwise-dot feature interaction.
// With F = 1 + numSparse feature vectors of dim d per sample, the output per
// sample is [dense (d) | upper-triangle dots (F*(F-1)/2)].
type DotInteraction struct {
	NumSparse int
	Dim       int

	// Workers is the sample-parallel width for Forward/Backward
	// (0 = GOMAXPROCS, 1 = single-threaded). Samples are independent, so
	// results are bitwise identical at any width; the single-threaded path
	// performs no allocation.
	Workers int

	// cached inputs for backward
	dense  *tensor.Matrix
	sparse []*tensor.Matrix
	dOut   *tensor.Matrix

	// featData[k] is the backing slice of feature matrix k (0 = dense), and
	// gradData[k] the matching gradient slice — read-only span tables built
	// once per call so the per-sample hot loops index flat arrays instead of
	// chasing method calls. Layer-owned, reused across calls.
	featData [][]float32
	gradData [][]float32

	// Reused output buffers (layer-owned scratch, valid until the next
	// Forward/Backward — the same contract as nn.Linear).
	out     *tensor.Matrix
	dDense  *tensor.Matrix
	dSparse []*tensor.Matrix

	// spans[s] is the private workspace of the s-th concurrent span; it
	// grows to the widest worker count seen and is never allocated per call.
	spans []spanScratch
}

// accRows is the number of interaction rows accumulated per pass (the
// height of tensor.MatMul4Rows, Axpy4Rows and Axpy4Skip).
const accRows = 4

// spanScratch is the per-sample workspace of one span, reused for every
// sample the span owns. With F = NumSparse+1:
//
//	vt    forward: the sample's partner features transposed, [Dim][vtWidth],
//	      vt[p][b] = v_b[p]; columns from F-1 on only ever feed surplus lanes.
//	      backward: the sample's features as rows, [F][Dim], v[b][p] = v_b[p]
//	acc   forward: the dot accumulators, [1+padTo4(F-1)][vtWidth], the dot
//	      rows in whole four-row tiles after the unused row 0; row a holds
//	      output row a's dots in its first a columns, and the rows past F-1
//	      are the padding rows of the last tile, never read
//	dz    backward: the sample's upstream dot gradients as a symmetric
//	      matrix, [fs][fs], fs = F rounded up to accRows; the diagonal is
//	      never written and stays zero, and the padding rows from F on are
//	      all ones
//	sink  backward: the gradient rows of the padding rows, [accRows-1][Dim],
//	      never read
type spanScratch struct {
	vt, acc, dz, sink []float32
}

// padTo4 rounds n up to a multiple of four, the height of a row tile.
func padTo4(n int) int { return (n + 3) &^ 3 }

// padTo8 rounds n up to a multiple of eight, the width of the register
// tile's half, so that a padded row runs as register tiles alone.
func padTo8(n int) int { return (n + 7) &^ 7 }

// vtWidth is the row length of the forward's Vᵀ: one column per partner
// feature (the last feature is nobody's partner), padded to whole tiles.
func (di *DotInteraction) vtWidth() int { return padTo8(di.NumSparse) }

// scratch returns one workspace per span for a batch of n samples: Workers of
// them, but never more than there are samples and at least the one the
// serial path uses. The table grows the first time a width is seen.
func (di *DotInteraction) scratch(n int) []spanScratch {
	w := max(1, min(tensor.EffectiveWorkers(di.Workers), n))
	f, d := di.NumSparse+1, di.Dim
	fs, vtW := padTo4(f), di.vtWidth()
	v, acc := max(d*vtW, f*d), (1+padTo4(f-1))*vtW
	for len(di.spans) < w {
		buf := make([]float32, v+acc+fs*fs+(accRows-1)*d)
		take := func(n int) []float32 {
			s := buf[:n:n]
			buf = buf[n:]
			return s
		}
		sc := spanScratch{vt: take(v), acc: take(acc), dz: take(fs * fs), sink: take((accRows - 1) * d)}
		for i := f * fs; i < fs*fs; i++ {
			sc.dz[i] = 1
		}
		di.spans = append(di.spans, sc)
	}
	return di.spans[:w]
}

// NewDotInteraction builds the layer for numSparse embedding features of
// dimension dim.
func NewDotInteraction(numSparse, dim int) *DotInteraction {
	return &DotInteraction{NumSparse: numSparse, Dim: dim}
}

// OutDim returns the per-sample output width.
func (di *DotInteraction) OutDim() int {
	f := di.NumSparse + 1
	return di.Dim + f*(f-1)/2
}

// Forward computes the interaction for a batch. dense is [n, Dim]; each
// sparse[t] is [n, Dim].
func (di *DotInteraction) Forward(dense *tensor.Matrix, sparse []*tensor.Matrix) *tensor.Matrix {
	if len(sparse) != di.NumSparse {
		panic(fmt.Sprintf("interaction: want %d sparse features, got %d", di.NumSparse, len(sparse)))
	}
	if dense.Cols != di.Dim {
		panic("interaction: dense dim mismatch")
	}
	n := dense.Rows
	for t, s := range sparse {
		if s.Rows != n || s.Cols != di.Dim {
			panic(fmt.Sprintf("interaction: sparse[%d] shape %dx%d", t, s.Rows, s.Cols))
		}
	}
	di.dense = dense
	di.sparse = sparse

	f := di.NumSparse + 1
	if cap(di.featData) < f {
		di.featData = make([][]float32, f)
	}
	feats := di.featData[:f]
	feats[0] = dense.Data
	for t, s := range sparse {
		feats[t+1] = s.Data
	}

	di.out = di.out.Resize(n, di.OutDim())
	// Spans are dealt out by span index, not by sample, so that each one
	// knows which workspace is its own.
	sc := di.scratch(n)
	if w := len(sc); w == 1 {
		di.forwardSpan(&sc[0], 0, n)
	} else {
		tensor.ParallelSpans(w, w, func(slo, shi int) {
			for s := slo; s < shi; s++ {
				di.forwardSpan(&sc[s], s*n/w, (s+1)*n/w)
			}
		})
	}
	return di.out
}

// forwardSpan computes output rows [lo, hi). Each sample reads only its own
// slice of every feature matrix and writes only its own output row, so spans
// are safe to run concurrently and the result is independent of the split.
//
// Per sample the dots are rows of V·Vᵀ cut to the strict lower triangle, in
// saxpy form: row a is acc[a][0:a] = sum over ascending p of
// v_a[p]*vt[p][0:a], so every dot is still one float32 accumulator that
// starts at +0 and is fed in ascending-p order — the exact tensor.Dot
// accumulation order — while the vector lanes run across the partners b.
// Four rows share each pass over vt (tensor.MatMul4Rows) and accumulate
// over the widest of them, padded to a multiple of eight lanes, so every
// pass runs on the register tile and its eight-lane half; the surplus
// lanes are computed and never copied out. The F-1 mod 4 leftover rows are
// one padded tile the same way: a missing row repeats the last real one
// into an accumulator row past F-1. vt is filled four partners at a time
// (tensor.Transpose4), the last group repeating the last partner into
// surplus columns, and the triangle is copied out in one pass
// (tensor.PackLower).
func (di *DotInteraction) forwardSpan(sc *spanScratch, lo, hi int) {
	d, outDim, f := di.Dim, di.OutDim(), di.NumSparse+1
	feats, out := di.featData[:f], di.out
	vtW := di.vtWidth()
	vt := sc.vt[:d*vtW]
	var c, acc [accRows][]float32 // a tile's coefficient rows and accumulator rows
	for i := lo; i < hi; i++ {
		row := out.Data[i*outDim : (i+1)*outDim]
		off := i * d
		copy(row[:d], feats[0][off:off+d])
		// The last feature is nobody's partner b < a.
		for b, last := 0, f-2; b <= last; b += 4 {
			tensor.Transpose4(vt[b:], vtW, feats[b][off:off+d], feats[min(b+1, last)][off:off+d], feats[min(b+2, last)][off:off+d], feats[min(b+3, last)][off:off+d])
		}
		for a := 1; a < f; a += accRows {
			last := min(a+accRows, f) - 1
			w := padTo8(last)
			for r := range c {
				c[r] = feats[min(a+r, last)][off : off+d]
				acc[r] = sc.acc[(a+r)*vtW : (a+r)*vtW+w]
			}
			tensor.MatMul4Rows(&c, vt, vtW, &acc)
		}
		tensor.PackLower(row[d:], sc.acc, vtW, f)
	}
}

// Backward maps dOut back to gradients for the dense input and each sparse
// input. Each dot term z_ab = <v_a, v_b> contributes dz*v_b to grad(v_a) and
// dz*v_a to grad(v_b); the copied dense part passes its gradient through.
func (di *DotInteraction) Backward(dOut *tensor.Matrix) (dDense *tensor.Matrix, dSparse []*tensor.Matrix) {
	if di.dense == nil {
		panic("interaction: Backward before Forward")
	}
	n := di.dense.Rows
	if dOut.Rows != n || dOut.Cols != di.OutDim() {
		panic("interaction: Backward shape mismatch")
	}
	// The gradients need no upfront zeroing: backwardSpan starts each dDense
	// row at its pass-through and each dSparse row at +0, in the one span
	// that owns the sample.
	di.dDense = di.dDense.Resize(n, di.Dim)
	dDense = di.dDense
	if di.dSparse == nil {
		di.dSparse = make([]*tensor.Matrix, di.NumSparse)
	}
	for t := range di.dSparse {
		di.dSparse[t] = di.dSparse[t].Resize(n, di.Dim)
	}
	dSparse = di.dSparse

	f := di.NumSparse + 1
	if cap(di.gradData) < f {
		di.gradData = make([][]float32, f)
	}
	grads := di.gradData[:f]
	grads[0] = dDense.Data
	for t, g := range dSparse {
		grads[t+1] = g.Data
	}

	di.dOut = dOut
	sc := di.scratch(n)
	if w := len(sc); w == 1 {
		di.backwardSpan(&sc[0], 0, n)
	} else {
		tensor.ParallelSpans(w, w, func(slo, shi int) {
			for s := slo; s < shi; s++ {
				di.backwardSpan(&sc[s], s*n/w, (s+1)*n/w)
			}
		})
	}
	return dDense, dSparse
}

// backwardSpan computes gradient rows for samples [lo, hi) (same isolation
// argument as forwardSpan: every slice touched is offset by the sample index).
//
// Per sample this is G = dz @ V with dz the symmetric F×F matrix of upstream
// dot gradients (zero diagonal) and the rows of grads as the accumulators:
// grad(v_a) += dz[a][b]*v_b for ascending b, exact-zero dz skipped. That is
// the order the pairwise formulation has — z_ab contributes dz*v_b to
// grad(v_a) and dz*v_a to grad(v_b), and walking the pairs a-major hands
// grad(v_a) its partners b < a first and the partners a' > a after — so each
// gradient element receives the same terms in the same order, and the vector
// lanes run across the elements p of a row.
//
// dz is unpacked from the lower triangle of the sample's dOut row
// (tensor.Symmetrize), and the sample's F feature rows are copied into one
// strided source (tensor.GatherRows). Each four-row tile of G is then one
// pass over all F partners that adds every term, zero ones included, on the
// register tile: tensor.Axpy4Rows for the first tile, whose row 0 starts at
// the dense pass-through, and tensor.MatMul4Rows, whose rows start at +0,
// for the rest. Adding the zero terms leaves every bit where the skip
// leaves it (DESIGN.md has the proof) as long as no accumulator holds -0
// and every v_b is finite: a skipped term is (±0)·v_b[p] = ±0, and adding
// ±0 to a value that is not -0 changes no bit. The sparse rows start at +0
// and only ever add, and in round-to-nearest x+y is -0 only when x and y
// both are, so they never hold -0; row 0 starts at the pass-through, which
// can. So a sample falls back to the skipping pass, tensor.Axpy4Skip, when
// one of its feature values is not finite (the gather reports that) or its
// pass-through holds a -0. Inside the skip a partner whose four
// coefficients are all non-zero is one four-row pass; a partner holding an
// exact zero updates only its non-zero rows, which is where the naive
// loop's skip lives.
//
// The F mod 4 leftover rows are one padded tile: the padding rows of dz are
// ones, so they never hold a partner back from the skip's four-row pass,
// and their gradient rows are the span's sink, which is never read.
func (di *DotInteraction) backwardSpan(sc *spanScratch, lo, hi int) {
	d, outDim, f := di.Dim, di.OutDim(), di.NumSparse+1
	feats, grads, dOut := di.featData[:f], di.gradData[:f], di.dOut
	fs := padTo4(f)
	dz, v := sc.dz, sc.vt[:f*d]
	// row returns gradient row a of the sample at off; a padding row is a
	// row of the sink.
	row := func(a, off int) []float32 {
		if a < f {
			return grads[a][off : off+d]
		}
		return sc.sink[(a-f)*d : (a-f+1)*d]
	}
	var g, z [accRows][]float32 // a tile's gradient rows and coefficient rows
	for i := lo; i < hi; i++ {
		up := dOut.Data[i*outDim : (i+1)*outDim]
		off := i * d
		tensor.Symmetrize(dz, fs, f, up[d:])
		// The features as the rows of one strided source.
		tiled := tensor.GatherRows(v, feats, off, d) && !holdsNegZero(up[:d])
		// Row 0 starts at the pass-through of the copied dense features,
		// the sparse rows at +0.
		copy(grads[0][off:off+d], up[:d])
		if !tiled {
			for t := 1; t < f; t++ {
				clear(grads[t][off : off+d])
			}
		}
		for a := 0; a < f; a += accRows {
			for r := range g {
				g[r] = row(a+r, off)
				z[r] = dz[(a+r)*fs : (a+r)*fs+f]
			}
			switch {
			case !tiled:
				tensor.Axpy4Skip(&z, v, d, &g)
			case a == 0:
				clear(g[1])
				clear(g[2])
				clear(g[3])
				tensor.Axpy4Rows(&z, v, d, &g)
			default:
				tensor.MatMul4Rows(&z, v, d, &g)
			}
		}
	}
}

// holdsNegZero reports whether x holds a -0.
func holdsNegZero(x []float32) bool {
	for _, v := range x {
		if math.Float32bits(v) == 1<<31 {
			return true
		}
	}
	return false
}
