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

// dzIndex is the position in a dOut row of the upstream gradient of the dot
// z_ab, a > b.
func dzIndex(d, a, b int) int { return d + a*(a-1)/2 + b }

// poison plants, in two of the case's samples, the inputs where skipping a
// zero term instead of adding it shows in the bits:
//   - sample 3: +Inf, -Inf and NaN in feature k's row, and an exact zero (of
//     alternating sign) in every second gradient facing it, so that a zero
//     term added instead of skipped turns a finite gradient into NaN;
//   - sample 5: -0 in the whole dense pass-through and a zero gradient on
//     every dense dot, so that only skipping leaves the -0 in place (adding
//     a +0 term would make it +0).
func (c interactionCase) poison(k int) {
	feats := c.feats()
	f, d := len(feats), c.dense.Cols
	row := c.dOut.Data[3*c.dOut.Cols : 4*c.dOut.Cols]
	v := feats[k][3*d : 4*d]
	// The NaN is made by arithmetic, so it has the payload of every NaN the
	// loops make themselves (Inf-Inf, 0*Inf): an add of two NaNs keeps one
	// operand's payload, and which one is a matter of operand roles, not of
	// the accumulation order this test pins.
	inf := float32(math.Inf(1))
	for p, s := range []float32{inf, -inf, inf - inf} {
		if p < d {
			v[p] = s
		}
	}
	negZero := float32(math.Copysign(0, -1))
	for b := 0; b < f; b += 2 {
		if b == k {
			continue
		}
		z := float32(0)
		if b%4 == 2 {
			z = negZero
		}
		row[dzIndex(d, max(k, b), min(k, b))] = z
	}

	row = c.dOut.Data[5*c.dOut.Cols : 6*c.dOut.Cols]
	for p := range d {
		row[p] = negZero
	}
	for a := 1; a < f; a++ {
		row[dzIndex(d, a, 0)] = 0
	}
}

func TestInteractionBitwiseParity(t *testing.T) {
	rng := tensor.NewRNG(77)
	const n = 11 // not a multiple of any worker count below
	for _, f := range []int{2, 4, 5, 8, 27} {
		for _, dim := range []int{1, 5, 13, 32} {
			for _, poisoned := range []bool{false, true} {
				c := newInteractionCase(rng, n, f, dim)
				if poisoned {
					c.poison(f / 2)
				}
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
						label := fmt.Sprintf("F=%d dim=%d poisoned=%v workers=%d round=%d", f, dim, poisoned, workers, round)
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
}

func benchInteraction(b *testing.B, backward bool) {
	const n, f, dim = 128, 27, 32
	rng := tensor.NewRNG(1)
	c := newInteractionCase(rng, n, f, dim)
	rng.FillNormal(c.dOut.Data, 0, 1) // a training gradient is dense
	di := NewDotInteraction(f-1, dim)
	di.Workers = 1
	di.Forward(c.dense, c.sparse)
	di.Backward(c.dOut) // grows the gradient matrices outside the timed loop
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
