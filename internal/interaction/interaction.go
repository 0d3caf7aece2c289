package interaction

import (
	"fmt"

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

// accRows is the number of interaction rows accumulated per pass (the width
// of tensor.Axpy4Rows and Axpy4Skip).
const accRows = 4

// spanScratch is the per-sample workspace of one span, reused for every
// sample the span owns. With F = NumSparse+1 and fPad = F rounded up to the
// vector width:
//
//	vt   [Dim][fPad]      forward: the sample's features transposed, vt[p][b] = v_b[p];
//	                      columns from F-1 on only ever feed surplus lanes.
//	                      backward: the sample's features as rows, vt[b][p] = v_b[p]
//	acc  [accRows][fPad]  forward: the dot accumulators of accRows output rows
//	dz   [fPad][F]        backward: the sample's upstream dot gradients as a
//	                      symmetric matrix; the diagonal is never written and
//	                      stays zero, and the padding rows from F on are all ones
//	sink [accRows-1][Dim] backward: the gradient rows of the padding rows, never read
type spanScratch struct {
	vt, acc, dz, sink []float32
}

// padTo4 rounds n up to a multiple of the four SSE lanes, so that a padded
// row is processed by whole vectors with no scalar tail.
func padTo4(n int) int { return (n + 3) &^ 3 }

// scratch returns one workspace per span for a batch of n samples: Workers of
// them, but never more than there are samples and at least the one the
// serial path uses. The table grows the first time a width is seen.
func (di *DotInteraction) scratch(n int) []spanScratch {
	w := max(1, min(tensor.EffectiveWorkers(di.Workers), n))
	f := di.NumSparse + 1
	fPad := padTo4(f)
	for len(di.spans) < w {
		d := di.Dim
		buf := make([]float32, d*fPad+accRows*fPad+fPad*f+(accRows-1)*d)
		take := func(n int) []float32 {
			s := buf[:n:n]
			buf = buf[n:]
			return s
		}
		sc := spanScratch{vt: take(d * fPad), acc: take(accRows * fPad), dz: take(fPad * f), sink: take((accRows - 1) * d)}
		for i := f * f; i < fPad*f; i++ {
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
// saxpy form: row a is acc[0:a] += v_a[p]*vt[p][0:a] for ascending p, so
// every dot is still one float32 accumulator fed in ascending-p order — the
// exact tensor.Dot accumulation order — while the vector lanes run across
// the partners b. Four rows share each pass over vt (tensor.Axpy4Rows) and
// accumulate over the widest of them, padded to whole vectors; the surplus
// lanes are computed and not copied out. The F-1 mod 4 leftover rows are one
// padded tile the same way: a missing row repeats the last real one, and
// its accumulator row is not copied out either.
func (di *DotInteraction) forwardSpan(sc *spanScratch, lo, hi int) {
	d, outDim, f := di.Dim, di.OutDim(), di.NumSparse+1
	feats, out := di.featData[:f], di.out
	fPad := padTo4(f)
	vt := sc.vt
	acc0, acc1, acc2, acc3 := sc.acc[:fPad], sc.acc[fPad:2*fPad], sc.acc[2*fPad:3*fPad], sc.acc[3*fPad:4*fPad]
	for i := lo; i < hi; i++ {
		row := out.Data[i*outDim : (i+1)*outDim]
		off := i * d
		copy(row[:d], feats[0][off:off+d])
		// The last feature is nobody's partner b < a, so the ragged edge
		// stops short of it.
		b := 0
		for ; b+4 <= f; b += 4 {
			tensor.Transpose4(vt[b:], fPad, feats[b][off:off+d], feats[b+1][off:off+d], feats[b+2][off:off+d], feats[b+3][off:off+d])
		}
		for ; b < f-1; b++ {
			col := vt[b:]
			for p, v := range feats[b][off : off+d] {
				col[p*fPad] = v
			}
		}
		pos := d
		for a := 1; a < f; a += accRows {
			last := min(a+accRows, f) - 1
			w := padTo4(last)
			clear(sc.acc)
			v0, v1, v2, v3 := feats[a][off:off+d], feats[min(a+1, last)][off:off+d], feats[min(a+2, last)][off:off+d], feats[min(a+3, last)][off:off+d]
			tensor.Axpy4Rows(v0, v1, v2, v3, vt, fPad, acc0[:w], acc1[:w], acc2[:w], acc3[:w])
			for r := range last - a + 1 {
				pos += copy(row[pos:], sc.acc[r*fPad:r*fPad+a+r])
			}
		}
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
	// dDense needs no upfront zeroing: the pass-through copy in backwardSpan
	// fully overwrites each row before any dot gradient accumulates into it,
	// and each dSparse row is cleared by the one span that owns its sample.
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
// The sample's F feature rows are first copied into vt, so that the partners
// are one strided source, and each four-row tile of G is then a single
// tensor.Axpy4Skip over all F partners. Inside it a partner whose four
// coefficients are all non-zero is one four-row pass; a partner holding an
// exact zero — the tile's own diagonal block, or a zero upstream gradient —
// updates only its non-zero rows, which is where the naive loop's skip
// lives. The F mod 4 leftover rows are one padded tile: the padding rows of
// dz are ones, so they never hold a partner back from the four-row pass,
// and their gradient rows are the span's sink, which is never copied out.
func (di *DotInteraction) backwardSpan(sc *spanScratch, lo, hi int) {
	d, outDim, f := di.Dim, di.OutDim(), di.NumSparse+1
	feats, grads, dOut := di.featData[:f], di.gradData[:f], di.dOut
	dz, v := sc.dz, sc.vt
	// row returns gradient row a of the sample at off; a padding row is a
	// row of the sink.
	row := func(a, off int) []float32 {
		if a < f {
			return grads[a][off : off+d]
		}
		return sc.sink[(a-f)*d : (a-f+1)*d]
	}
	for i := lo; i < hi; i++ {
		up := dOut.Data[i*outDim : (i+1)*outDim]
		off := i * d
		// Pass-through for the copied dense features; clear the sparse
		// gradient rows this sample owns.
		copy(grads[0][off:off+d], up[:d])
		for t := 1; t < f; t++ {
			clear(grads[t][off : off+d])
		}
		pos := d
		for a := 1; a < f; a++ {
			lower := up[pos : pos+a]
			za := dz[a*f : a*f+len(lower)]
			for b, z := range lower {
				za[b], dz[b*f+a] = z, z
			}
			pos += a
		}
		// The features as the rows of one strided source.
		for b := range f {
			copy(v[b*d:(b+1)*d], feats[b][off:off+d])
		}
		for a := 0; a < f; a += accRows {
			g0, g1, g2, g3 := row(a, off), row(a+1, off), row(a+2, off), row(a+3, off)
			z0, z1, z2, z3 := dz[a*f:(a+1)*f], dz[(a+1)*f:(a+2)*f], dz[(a+2)*f:(a+3)*f], dz[(a+3)*f:(a+4)*f]
			tensor.Axpy4Skip(z0, z1, z2, z3, v, d, g0, g1, g2, g3)
		}
	}
}
