package nn

import "dlrmcomp/internal/tensor"

// Param couples a parameter slice with its gradient accumulator. SGD
// updates Value in place from Grad.
type Param struct {
	Value []float32
	Grad  []float32
}

// SGD is plain stochastic gradient descent: w -= lr * g.
type SGD struct {
	LR float32

	// Workers is the parallel width for large parameter slices
	// (0 = GOMAXPROCS, 1 = single-threaded). The update is elementwise, so
	// any partition yields bitwise-identical parameters; slices below
	// sgdParallelMin elements always update serially.
	Workers int
}

// sgdParallelMin is the slice length below which the SGD update stays
// serial: fan-out overhead beats the work saved on anything smaller.
const sgdParallelMin = 1 << 15

// Step applies the SGD update.
func (o *SGD) Step(params []Param) {
	for _, p := range params {
		grad, value := p.Grad, p.Value
		if o.Workers == 1 || len(grad) < sgdParallelMin {
			for i, g := range grad {
				value[i] -= o.LR * g
			}
			continue
		}
		tensor.ParallelSpans(o.Workers, len(grad), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				value[i] -= o.LR * grad[i]
			}
		})
	}
}
