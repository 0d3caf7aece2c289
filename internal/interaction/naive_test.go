package interaction

import (
	"fmt"
	"math"
	"testing"

	"dlrmcomp/internal/tensor"
)

// Scalar reference loop nests. These are the executable specification of the
// accumulation order DotInteraction must reproduce bitwise: every dot is one
// float32 accumulator fed in ascending-p order, and every gradient element
// receives its dz*v terms in ascending partner index with exact-zero dz
// skipped. They are the layer's span bodies as they stood before the axpy
// re-expression, moved here verbatim (feats/grads are the per-feature backing
// slices, 0 = dense).

// forwardNaive computes every output row of the interaction.
func forwardNaive(out *tensor.Matrix, feats [][]float32, d int) {
	outDim, f := out.Cols, len(feats)
	for i := 0; i < out.Rows; i++ {
		row := out.Data[i*outDim : (i+1)*outDim]
		off := i * d
		copy(row[:d], feats[0][off:off+d])
		pos := d
		for a := 1; a < f; a++ {
			va := feats[a][off : off+d]
			for b := 0; b < a; b++ {
				vb := feats[b][off : off+d]
				// Inlined dot: single accumulator, ascending p — the exact
				// tensor.Dot accumulation order.
				var s float32
				for p, v := range va {
					s += v * vb[p]
				}
				row[pos] = s
				pos++
			}
		}
	}
}

// backwardNaive computes every gradient row from dOut.
func backwardNaive(grads [][]float32, dOut *tensor.Matrix, feats [][]float32, d int) {
	outDim, f := dOut.Cols, len(feats)
	for i := 0; i < dOut.Rows; i++ {
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
			va := feats[a][off : off+d]
			ga := grads[a][off : off+d]
			for b := 0; b < a; b++ {
				dz := row[pos]
				pos++
				if dz == 0 {
					continue
				}
				vb := feats[b][off : off+d]
				gb := grads[b][off : off+d]
				// Fused pair of axpys. ga and gb are disjoint rows (a != b),
				// so interleaving the two updates preserves each element's
				// accumulation order exactly.
				for p, v := range va {
					ga[p] += dz * vb[p]
					gb[p] += dz * v
				}
			}
		}
	}
}

// interactionCase is one random problem: F feature matrices of n×dim and an
// upstream gradient with exact zeros (both signs) scattered through it so the
// skip path runs in every mixed pattern.
type interactionCase struct {
	dense  *tensor.Matrix
	sparse []*tensor.Matrix
	dOut   *tensor.Matrix
}

func newInteractionCase(rng *tensor.RNG, n, f, dim int) interactionCase {
	c := interactionCase{dense: tensor.NewMatrix(n, dim), sparse: make([]*tensor.Matrix, f-1)}
	rng.FillNormal(c.dense.Data, 0, 1)
	for t := range c.sparse {
		c.sparse[t] = tensor.NewMatrix(n, dim)
		rng.FillNormal(c.sparse[t].Data, 0, 1)
	}
	c.dOut = tensor.NewMatrix(n, dim+f*(f-1)/2)
	rng.FillNormal(c.dOut.Data, 0, 1)
	for i := range c.dOut.Data {
		switch rng.Intn(6) {
		case 0, 1:
			c.dOut.Data[i] = 0
		case 2:
			c.dOut.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	return c
}

func (c interactionCase) feats() [][]float32 {
	feats := [][]float32{c.dense.Data}
	for _, s := range c.sparse {
		feats = append(feats, s.Data)
	}
	return feats
}

func requireBitwise(t *testing.T, got, want []float32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", label, len(got), len(want))
	}
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)",
				label, i, math.Float32bits(v), v, math.Float32bits(want[i]), want[i])
		}
	}
}

func TestInteractionBitwiseParity(t *testing.T) {
	rng := tensor.NewRNG(77)
	const n = 11 // not a multiple of any worker count below
	for _, f := range []int{2, 5, 27} {
		for _, dim := range []int{1, 5, 13, 32} {
			c := newInteractionCase(rng, n, f, dim)
			feats := c.feats()
			wantOut := tensor.NewMatrix(n, c.dOut.Cols)
			forwardNaive(wantOut, feats, dim)
			wantGrads := make([][]float32, f)
			for k := range wantGrads {
				wantGrads[k] = make([]float32, n*dim)
			}
			backwardNaive(wantGrads, c.dOut, feats, dim)

			for _, workers := range []int{1, 2, 8} {
				di := NewDotInteraction(f-1, dim)
				di.Workers = workers
				// Two rounds: the second runs on warm, reused scratch.
				for round := 0; round < 2; round++ {
					label := fmt.Sprintf("F=%d dim=%d workers=%d round=%d", f, dim, workers, round)
					out := di.Forward(c.dense, c.sparse)
					requireBitwise(t, out.Data, wantOut.Data, label+" out")
					dDense, dSparse := di.Backward(c.dOut)
					requireBitwise(t, dDense.Data, wantGrads[0], label+" dDense")
					for k, g := range dSparse {
						requireBitwise(t, g.Data, wantGrads[k+1], fmt.Sprintf("%s dSparse[%d]", label, k))
					}
				}
			}
		}
	}
}

func benchInteraction(b *testing.B, backward bool) {
	const n, f, dim = 128, 27, 32
	rng := tensor.NewRNG(1)
	c := newInteractionCase(rng, n, f, dim)
	rng.FillNormal(c.dOut.Data, 0, 1) // a training gradient is dense
	di := NewDotInteraction(f-1, dim)
	di.Workers = 1
	di.Forward(c.dense, c.sparse)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if backward {
			di.Backward(c.dOut)
		} else {
			di.Forward(c.dense, c.sparse)
		}
	}
}

func BenchmarkInteraction_Fwd(b *testing.B) { benchInteraction(b, false) }
func BenchmarkInteraction_Bwd(b *testing.B) { benchInteraction(b, true) }
