package nn

import (
	"fmt"
	"math"

	"dlrmcomp/internal/tensor"
)

// Linear is a fully connected layer computing y = x @ Wᵀ + b with
// W of shape [out, in].
type Linear struct {
	In, Out int
	W       *tensor.Matrix // [Out, In]
	B       []float32      // [Out]

	// Workers is the row-parallel width handed to the tensor matmuls
	// (0 = GOMAXPROCS, 1 = single-threaded). Results are bitwise identical
	// at any width; small batches stay single-threaded regardless via the
	// tensor parallel threshold.
	Workers int

	GradW *tensor.Matrix
	GradB []float32

	x *tensor.Matrix // cached input for backward

	// Reused output/scratch buffers (resized per batch). Forward and
	// Backward return layer-owned matrices that stay valid only until the
	// layer's next Forward/Backward call — the train-step hot path frames or
	// consumes them within the step, so steady-state training allocates
	// nothing here.
	y, gw, dX *tensor.Matrix
	gb        []float32
	pk        tensor.Panels // the packed operand of whichever product ran last
}

// NewLinear constructs a layer with He-uniform initialized weights, the
// scheme used by the DLRM reference code for ReLU MLPs.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		In:    in,
		Out:   out,
		W:     tensor.NewMatrix(out, in),
		B:     make([]float32, out),
		GradW: tensor.NewMatrix(out, in),
		GradB: make([]float32, out),
	}
	limit := float32(math.Sqrt(6.0 / float64(in+out)))
	rng.FillUniform(l.W.Data, -limit, limit)
	rng.FillUniform(l.B, -limit, limit)
	return l
}

// Forward computes the affine transform for a batch x of shape [n, In].
// The returned matrix is layer-owned scratch, valid until the next Forward.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d inputs, got %d", l.In, x.Cols))
	}
	l.x = x
	l.y = l.y.Resize(x.Rows, l.Out)
	tensor.MatMulTransBWorkers(l.Workers, l.y, x, l.W, &l.pk)
	tensor.AddRowVec(l.y, l.B)
	return l.y
}

// Backward accumulates parameter gradients from dY (shape [n, Out]) and
// returns dX (shape [n, In], layer-owned scratch valid until the next
// Backward).
func (l *Linear) Backward(dY *tensor.Matrix) *tensor.Matrix {
	l.accumulateGrads(dY)
	// dX = dY @ W
	l.dX = l.dX.Resize(dY.Rows, l.In)
	tensor.MatMulWorkers(l.Workers, l.dX, dY, l.W, &l.pk)
	return l.dX
}

// accumulateGrads is the part of Backward that reaches the parameters:
// GradW += dYᵀ @ x, GradB += colsums(dY).
func (l *Linear) accumulateGrads(dY *tensor.Matrix) {
	if l.x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	l.gw = l.gw.Resize(l.Out, l.In)
	tensor.MatMulTransAWorkers(l.Workers, l.gw, dY, l.x, &l.pk)
	tensor.Axpy(1, l.gw.Data, l.GradW.Data)
	if cap(l.gb) < l.Out {
		l.gb = make([]float32, l.Out)
	}
	l.gb = l.gb[:l.Out]
	tensor.ColSums(l.gb, dY)
	tensor.Axpy(1, l.gb, l.GradB)
}

// ZeroGrad clears accumulated gradients.
func (l *Linear) ZeroGrad() {
	l.GradW.Zero()
	for i := range l.GradB {
		l.GradB[i] = 0
	}
}

// Params returns the parameter and gradient slices for the optimizer.
func (l *Linear) Params() []Param {
	return []Param{
		{Value: l.W.Data, Grad: l.GradW.Data},
		{Value: l.B, Grad: l.GradB},
	}
}

// Clone returns a layer with copied weights and fresh (zero) gradients and
// caches. Data-parallel replicas are built this way so every rank starts
// from bit-identical parameters.
func (l *Linear) Clone() *Linear {
	return &Linear{
		In:      l.In,
		Out:     l.Out,
		W:       l.W.Clone(),
		B:       append([]float32(nil), l.B...),
		Workers: l.Workers,
		GradW:   tensor.NewMatrix(l.Out, l.In),
		GradB:   make([]float32, l.Out),
	}
}
