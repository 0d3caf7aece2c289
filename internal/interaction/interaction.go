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
//	vt  [Dim][fPad]     forward: the sample's features transposed, vt[p][b] = v_b[p];
//	                    columns from F-1 on only ever feed surplus lanes
//	acc [accRows][fPad] forward: the dot accumulators of accRows output rows
//	dz  [F][F]          backward: the sample's upstream dot gradients as a
//	                    symmetric matrix; the diagonal is never written and stays zero
type spanScratch struct {
	vt, acc, dz []float32
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
		buf := make([]float32, di.Dim*fPad+accRows*fPad+f*f)
		vt, rest := buf[:di.Dim*fPad], buf[di.Dim*fPad:]
		di.spans = append(di.spans, spanScratch{vt: vt, acc: rest[:accRows*fPad], dz: rest[accRows*fPad:]})
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
// lanes are computed and not copied out.
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
		a := 1
		for ; a+accRows <= f; a += accRows {
			w := padTo4(a + accRows - 1)
			clear(sc.acc)
			v0, v1, v2, v3 := feats[a][off:off+d], feats[a+1][off:off+d], feats[a+2][off:off+d], feats[a+3][off:off+d]
			tensor.Axpy4Rows(v0, v1, v2, v3, vt, fPad, acc0[:w], acc1[:w], acc2[:w], acc3[:w])
			pos += copy(row[pos:], acc0[:a])
			pos += copy(row[pos:], acc1[:a+1])
			pos += copy(row[pos:], acc2[:a+2])
			pos += copy(row[pos:], acc3[:a+3])
		}
		for ; a < f; a++ {
			w := padTo4(a)
			clear(acc0)
			for p, v := range feats[a][off : off+d] {
				tensor.Axpy(v, vt[p*fPad:p*fPad+w], acc0[:w])
			}
			pos += copy(row[pos:], acc0[:a])
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
func (di *DotInteraction) backwardSpan(sc *spanScratch, lo, hi int) {
	d, outDim, f := di.Dim, di.OutDim(), di.NumSparse+1
	feats, grads, dOut := di.featData[:f], di.gradData[:f], di.dOut
	dz := sc.dz
	for i := lo; i < hi; i++ {
		row := dOut.Data[i*outDim : (i+1)*outDim]
		off := i * d
		// Pass-through for the copied dense features; clear the sparse
		// gradient rows this sample owns.
		copy(grads[0][off:off+d], row[:d])
		for t := 1; t < f; t++ {
			clear(grads[t][off : off+d])
		}
		pos := d
		for a := 1; a < f; a++ {
			for b := 0; b < a; b++ {
				dz[a*f+b], dz[b*f+a] = row[pos], row[pos]
				pos++
			}
		}
		a := 0
		for ; a+accRows <= f; a += accRows {
			g0, g1, g2, g3 := grads[a][off:off+d], grads[a+1][off:off+d], grads[a+2][off:off+d], grads[a+3][off:off+d]
			z0, z1, z2, z3 := dz[a*f:(a+1)*f], dz[(a+1)*f:(a+2)*f], dz[(a+2)*f:(a+3)*f], dz[(a+3)*f:(a+4)*f]
			for b := 0; b < f; b++ {
				// The diagonal makes four terms per tile partly zero.
				if c0, c1, c2, c3 := z0[b], z1[b], z2[b], z3[b]; c0 != 0 || c1 != 0 || c2 != 0 || c3 != 0 {
					tensor.Axpy4Skip(c0, c1, c2, c3, feats[b][off:off+d], g0, g1, g2, g3)
				}
			}
		}
		for ; a < f; a++ {
			ga := grads[a][off : off+d]
			for b, c := range dz[a*f : (a+1)*f] {
				if c != 0 {
					tensor.Axpy(c, feats[b][off:off+d], ga)
				}
			}
		}
	}
}
