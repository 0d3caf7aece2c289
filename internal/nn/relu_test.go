package nn

import (
	"math"
	"testing"

	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

// reluForwardRef and reluBackwardRef are ReLU's loops as they stood when the
// layer kept a []bool mask and branched per element: the executable
// specification the branch-free loops are held to, bit for bit.
func reluForwardRef(y []float32, mask []bool, x []float32) {
	copy(y, x)
	for i, v := range y {
		if v <= 0 {
			y[i] = 0
			mask[i] = false
		} else {
			mask[i] = true
		}
	}
}

func reluBackwardRef(dX []float32, mask []bool, dY []float32) {
	copy(dX, dY)
	for i := range dX {
		if !mask[i] {
			dX[i] = 0
		}
	}
}

// reluSpecials is every class of float32 the two loops can meet.
var reluSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest denormals
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.MaxFloat32, -math.MaxFloat32, 1, -1, 0.5, -0.5,
	float32(math.NaN()), math.Float32frombits(0x7fc00123), math.Float32frombits(0xffc00456), // quiet NaNs, both signs, with payloads
}

func TestReLUBitwise(t *testing.T) {
	// Every special as an activation against every special as a gradient,
	// then a random fill around them.
	var xs, gs []float32
	for _, x := range reluSpecials {
		for _, g := range reluSpecials {
			xs, gs = append(xs, x), append(gs, g)
		}
	}
	rng := tensor.NewRNG(9)
	tail := make([]float32, 2*257)
	rng.FillNormal(tail, 0, 1)
	xs, gs = append(xs, tail[:257]...), append(gs, tail[257:]...)

	n := len(xs)
	wantY, wantDX, mask := make([]float32, n), make([]float32, n), make([]bool, n)
	reluForwardRef(wantY, mask, xs)
	reluBackwardRef(wantDX, mask, gs)

	r := &ReLU{}
	y := r.Forward(testutil.FromSlice(1, n, xs))
	dX := r.Backward(testutil.FromSlice(1, n, gs))
	for i := range xs {
		if math.Float32bits(y.Data[i]) != math.Float32bits(wantY[i]) {
			t.Fatalf("Forward(%x) = %x, want %x", math.Float32bits(xs[i]), math.Float32bits(y.Data[i]), math.Float32bits(wantY[i]))
		}
		if math.Float32bits(dX.Data[i]) != math.Float32bits(wantDX[i]) {
			t.Fatalf("Backward(x=%x, dY=%x) = %x, want %x", math.Float32bits(xs[i]), math.Float32bits(gs[i]),
				math.Float32bits(dX.Data[i]), math.Float32bits(wantDX[i]))
		}
	}
}

// benchReLU runs one direction over a 1024×256 activation (the widest hidden
// layer of the train-dense1 MLPs) with the sign of every element a coin flip.
func benchReLU(b *testing.B, backward bool) {
	rng := tensor.NewRNG(1)
	x, dY := tensor.NewMatrix(1024, 256), tensor.NewMatrix(1024, 256)
	rng.FillNormal(x.Data, 0, 1)
	rng.FillNormal(dY.Data, 0, 1)
	r := &ReLU{}
	r.Forward(x)
	r.Backward(dY)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if backward {
			r.Backward(dY)
		} else {
			r.Forward(x)
		}
	}
}

func BenchmarkReLU_Fwd(b *testing.B) { benchReLU(b, false) }
func BenchmarkReLU_Bwd(b *testing.B) { benchReLU(b, true) }
