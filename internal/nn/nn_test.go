package nn

import (
	"math"
	"testing"

	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

func TestLinearForwardShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear(4, 3, rng)
	x := tensor.NewMatrix(5, 4)
	rng.FillNormal(x.Data, 0, 1)
	y := l.Forward(x)
	if y.Rows != 5 || y.Cols != 3 {
		t.Fatalf("Forward shape = %dx%d, want 5x3", y.Rows, y.Cols)
	}
}

func TestLinearForwardValues(t *testing.T) {
	l := &Linear{
		In: 2, Out: 1,
		W:     testutil.FromSlice(1, 2, []float32{2, 3}),
		B:     []float32{1},
		GradW: tensor.NewMatrix(1, 2),
		GradB: make([]float32, 1),
	}
	x := testutil.FromSlice(1, 2, []float32{4, 5})
	y := l.Forward(x)
	if y.Data[0] != 2*4+3*5+1 {
		t.Fatalf("Forward = %v, want 24", y.Data[0])
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	x := testutil.FromSlice(1, 4, []float32{-1, 0, 2, -3})
	y := r.Forward(x)
	for i, w := range []float32{0, 0, 2, 0} {
		if y.Data[i] != w {
			t.Fatalf("ReLU[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
	dY := testutil.FromSlice(1, 4, []float32{1, 1, 1, 1})
	dX := r.Backward(dY)
	for i, w := range []float32{0, 0, 1, 0} {
		if dX.Data[i] != w {
			t.Fatalf("ReLU grad[%d] = %v, want %v", i, dX.Data[i], w)
		}
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); math.Abs(float64(s)-0.5) > 1e-6 {
		t.Fatalf("Sigmoid(0) = %v", s)
	}
	if s := Sigmoid(100); s < 0.999 {
		t.Fatalf("Sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s > 0.001 {
		t.Fatalf("Sigmoid(-100) = %v", s)
	}
}

// mlpLoss runs a forward pass plus BCE loss, used for numerical gradients.
func mlpLoss(m *MLP, x *tensor.Matrix, labels []float32) float64 {
	logits := m.Forward(x)
	return LogLoss(logits, labels)
}

// TestMLPGradientCheck compares analytic gradients against central
// differences on every parameter of a small MLP.
func TestMLPGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := NewMLP([]int{3, 4, 1}, rng)
	x := tensor.NewMatrix(6, 3)
	rng.FillNormal(x.Data, 0, 1)
	labels := []float32{0, 1, 1, 0, 1, 0}

	m.ZeroGrad()
	logits := m.Forward(x)
	_, dz := BCEWithLogits(logits, labels)
	m.Backward(dz)

	const h = 1e-3
	for li, layer := range m.Layers {
		for pi, p := range layer.Params() {
			for i := range p.Value {
				orig := p.Value[i]
				p.Value[i] = orig + h
				lp := mlpLoss(m, x, labels)
				p.Value[i] = orig - h
				lm := mlpLoss(m, x, labels)
				p.Value[i] = orig
				numeric := (lp - lm) / (2 * h)
				analytic := float64(p.Grad[i])
				if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
					t.Fatalf("layer %d param %d idx %d: analytic %v vs numeric %v",
						li, pi, i, analytic, numeric)
				}
			}
		}
	}
}

func TestBCEWithLogitsValues(t *testing.T) {
	logits := testutil.FromSlice(2, 1, []float32{0, 0})
	loss, grad := BCEWithLogits(logits, []float32{1, 0})
	want := float32(math.Log(2))
	if math.Abs(float64(loss-want)) > 1e-6 {
		t.Fatalf("loss = %v, want ln2 = %v", loss, want)
	}
	// d/dz at z=0: (0.5 - y)/n
	if math.Abs(float64(grad.Data[0]+0.25)) > 1e-6 || math.Abs(float64(grad.Data[1]-0.25)) > 1e-6 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestBCENumericalStability(t *testing.T) {
	logits := testutil.FromSlice(2, 1, []float32{1000, -1000})
	loss, grad := BCEWithLogits(logits, []float32{1, 0})
	if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
		t.Fatalf("loss not finite: %v", loss)
	}
	if loss > 1e-3 {
		t.Fatalf("loss should be ~0 for confident correct predictions, got %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(float64(g)) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := testutil.FromSlice(4, 1, []float32{2, -2, 1, -1})
	acc := Accuracy(logits, []float32{1, 0, 0, 1})
	if acc != 0.5 {
		t.Fatalf("Accuracy = %v, want 0.5", acc)
	}
}

func TestSGDStep(t *testing.T) {
	p := Param{Value: []float32{1, 2}, Grad: []float32{0.5, -0.5}}
	(&SGD{LR: 0.1}).Step([]Param{p})
	if p.Value[0] != 0.95 || p.Value[1] != 2.05 {
		t.Fatalf("SGD update = %v", p.Value)
	}
}

// TestMLPLearnsXOR trains a tiny MLP on XOR to confirm the full
// forward/backward/step loop actually optimizes.
func TestMLPLearnsXOR(t *testing.T) {
	rng := tensor.NewRNG(12)
	m := NewMLP([]int{2, 8, 1}, rng)
	x := testutil.FromSlice(4, 2, []float32{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []float32{0, 1, 1, 0}
	opt := &SGD{LR: 0.5}
	var loss float32
	for epoch := 0; epoch < 2000; epoch++ {
		m.ZeroGrad()
		logits := m.Forward(x)
		var dz *tensor.Matrix
		loss, dz = BCEWithLogits(logits, labels)
		m.Backward(dz)
		opt.Step(m.Params())
	}
	if loss > 0.1 {
		t.Fatalf("XOR did not converge, final loss %v", loss)
	}
	if acc := Accuracy(m.Forward(x), labels); acc != 1.0 {
		t.Fatalf("XOR accuracy %v, want 1.0", acc)
	}
}

func TestMLPNumParams(t *testing.T) {
	rng := tensor.NewRNG(2)
	m := NewMLP([]int{3, 4, 2}, rng)
	// (3*4 + 4) + (4*2 + 2) = 16 + 10 = 26 scalars, each with a gradient
	n := 0
	for _, p := range m.Params() {
		if len(p.Grad) != len(p.Value) {
			t.Fatalf("param of %d values has %d grads", len(p.Value), len(p.Grad))
		}
		n += len(p.Value)
	}
	if n != 26 {
		t.Fatalf("Params hold %d scalars, want 26", n)
	}
}

func TestMLPBackwardAccumulates(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := NewMLP([]int{2, 3, 1}, rng)
	x := tensor.NewMatrix(2, 2)
	rng.FillNormal(x.Data, 0, 1)
	labels := []float32{0, 1}

	m.ZeroGrad()
	logits := m.Forward(x)
	_, dz := BCEWithLogits(logits, labels)
	m.Backward(dz)
	g1 := make([]float32, len(m.Layers[0].GradW.Data))
	copy(g1, m.Layers[0].GradW.Data)

	// Second backward without ZeroGrad doubles the gradient.
	logits = m.Forward(x)
	_, dz = BCEWithLogits(logits, labels)
	m.Backward(dz)
	for i, g := range m.Layers[0].GradW.Data {
		if math.Abs(float64(g-2*g1[i])) > 1e-5 {
			t.Fatalf("gradient accumulation broken at %d: %v vs %v", i, g, 2*g1[i])
		}
	}
}

// TestBackwardParamsMatchesBackward: stopping before the first layer's
// input gradient leaves every parameter gradient bit as Backward leaves it.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	rng := tensor.NewRNG(5)
	full := NewMLP([]int{13, 16, 8, 4}, rng)
	params := full.Clone()
	x := tensor.NewMatrix(9, 13)
	rng.FillNormal(x.Data, 0, 1)
	dY := tensor.NewMatrix(9, 4)
	rng.FillNormal(dY.Data, 0, 1)
	full.Forward(x)
	full.Backward(dY)
	params.Forward(x)
	params.BackwardParams(dY)
	want, got := full.Params(), params.Params()
	for i := range want {
		for j, g := range want[i].Grad {
			if math.Float32bits(got[i].Grad[j]) != math.Float32bits(g) {
				t.Fatalf("param %d grad %d: %v after BackwardParams, %v after Backward", i, j, got[i].Grad[j], g)
			}
		}
	}
}
