package nn

import (
	"math"

	"dlrmcomp/internal/tensor"
)

// ReLU is the rectified-linear activation.
type ReLU struct {
	// Reused output buffers; see Linear for the scratch-ownership contract.
	// y doubles as the backward mask, so it must reach Backward unmodified
	// (layers downstream only read their input).
	y, dX *tensor.Matrix
}

// Forward applies max(0, x) elementwise: +0 for anything not above zero
// (including -0), x itself otherwise, and a NaN kept bit for bit — which is
// why this is integer code and not the max builtin, which drops a NaN's sign.
// An element survives when its sign bit is clear or its magnitude is past
// infinity's; both tests are stretched to whole words and ANDed in, so the
// loop has no branch — on an activation the sign is a coin flip no predictor
// learns. The returned matrix is layer-owned scratch, valid until the next
// Forward.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	const inf = 0x7f800000
	r.y = r.y.Resize(x.Rows, x.Cols)
	y := r.y.Data[:len(x.Data)]
	for i, v := range x.Data {
		b := math.Float32bits(v)
		negative := uint32(int32(b) >> 31)
		nan := uint32(int32(inf-b&^(1<<31)) >> 31)
		y[i] = math.Float32frombits(b & (^negative | nan))
	}
	return r.y
}

// Backward zeroes gradient where the activation was clamped. Forward left y
// as +0 exactly where it clamped and as something with a non-zero bit
// pattern (positive, or NaN) everywhere else, so "bits(y) != 0", stretched
// to a whole word and ANDed into bits(dY), is the mask — again without a
// branch. The returned matrix is layer-owned scratch, valid until the next
// Backward.
func (r *ReLU) Backward(dY *tensor.Matrix) *tensor.Matrix {
	r.dX = r.dX.Resize(dY.Rows, dY.Cols)
	dX := r.dX.Data[:len(dY.Data)]
	y := r.y.Data[:len(dY.Data)]
	for i, g := range dY.Data {
		b := math.Float32bits(y[i])
		keep := -((b | -b) >> 31) // all ones when b != 0, else zero
		dX[i] = math.Float32frombits(math.Float32bits(g) & keep)
	}
	return r.dX
}

// Sigmoid computes the logistic function elementwise.
func Sigmoid(x float32) float32 {
	return float32(1.0 / (1.0 + mathExp(-float64(x))))
}

func mathExp(x float64) float64 {
	// Clamp to avoid overflow in exp; sigmoid saturates well before ±40.
	if x > 40 {
		x = 40
	} else if x < -40 {
		x = -40
	}
	return expImpl(x)
}

// MLP is a stack of Linear layers with ReLU between them. The last layer's
// output is left as logits; pair it with BCEWithLogits.
type MLP struct {
	Layers []*Linear
	relus  []*ReLU
}

// NewMLP builds an MLP with the given layer sizes, e.g. {13, 512, 256, 64}
// creates three Linear layers.
func NewMLP(sizes []int, rng *tensor.RNG) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
		m.relus = append(m.relus, &ReLU{})
	}
	return m
}

// Forward runs the batch through every layer. ReLU is applied after every
// layer except the last (matching the DLRM reference bottom/top MLPs, whose
// hidden layers are ReLU and whose last bottom-layer output is also ReLU).
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	h := x
	for i, l := range m.Layers {
		h = l.Forward(h)
		if i < len(m.Layers)-1 {
			h = m.relus[i].Forward(h)
		}
	}
	return h
}

// SetWorkers sets the row-parallel width on every layer (see Linear.Workers).
// Results are bitwise identical at any width.
func (m *MLP) SetWorkers(w int) {
	for _, l := range m.Layers {
		l.Workers = w
	}
}

// Backward propagates dY through the stack and returns dX.
func (m *MLP) Backward(dY *tensor.Matrix) *tensor.Matrix { return m.backward(dY, true) }

// BackwardParams is Backward for a caller that does not read dX: it
// accumulates every parameter gradient, bit for bit as Backward does, and
// skips the first layer's input gradient, the one product nothing consumes.
func (m *MLP) BackwardParams(dY *tensor.Matrix) { m.backward(dY, false) }

func (m *MLP) backward(dY *tensor.Matrix, wantDX bool) *tensor.Matrix {
	d := dY
	for i := len(m.Layers) - 1; i >= 0; i-- {
		if i < len(m.Layers)-1 {
			d = m.relus[i].Backward(d)
		}
		if i == 0 && !wantDX {
			m.Layers[0].accumulateGrads(d)
			return nil
		}
		d = m.Layers[i].Backward(d)
	}
	return d
}

// ZeroGrad clears gradients in all layers.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// Params returns all layer parameters in order.
func (m *MLP) Params() []Param {
	var ps []Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Clone returns an MLP with copied weights and fresh gradients, activation
// masks, and caches (see Linear.Clone).
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		c.Layers = append(c.Layers, l.Clone())
		c.relus = append(c.relus, &ReLU{})
	}
	return c
}
