package nn

import (
	"math"

	"dlrmcomp/internal/tensor"
)

func expImpl(x float64) float64 { return math.Exp(x) }

// BCEWithLogits computes the mean binary cross-entropy between logits z
// (shape [n, 1]) and labels in {0, 1}, and returns the loss plus
// dL/dz (shape [n, 1]). The sigmoid is fused for numerical stability:
//
//	loss_i = max(z,0) - z*y + log(1 + exp(-|z|))
//	dL/dz_i = (sigmoid(z) - y) / n
func BCEWithLogits(logits *tensor.Matrix, labels []float32) (float32, *tensor.Matrix) {
	grad := tensor.NewMatrix(logits.Rows, 1)
	return BCEWithLogitsInto(grad, logits, labels), grad
}

// BCEWithLogitsInto is BCEWithLogits writing dL/dz into a caller-owned grad
// matrix (shape [n, 1]) — the allocation-free variant the train-step
// workspace uses. Returns the mean loss.
func BCEWithLogitsInto(grad, logits *tensor.Matrix, labels []float32) float32 {
	if logits.Cols != 1 || logits.Rows != len(labels) {
		panic("nn: BCEWithLogits expects [n,1] logits matching labels")
	}
	if grad.Cols != 1 || grad.Rows != logits.Rows {
		panic("nn: BCEWithLogitsInto grad shape mismatch")
	}
	n := float64(len(labels))
	var total float64
	for i, y := range labels {
		z := float64(logits.Data[i])
		// Stable BCE-with-logits.
		loss := math.Max(z, 0) - float64(z*float64(y)) + math.Log1p(math.Exp(-math.Abs(z)))
		total += loss
		p := 1.0 / (1.0 + math.Exp(-z))
		grad.Data[i] = float32((p - float64(y)) / n)
	}
	return float32(total / n)
}

// Accuracy returns the fraction of rows where sigmoid(logit) >= 0.5 matches
// the binary label — the metric the paper's accuracy curves report.
func Accuracy(logits *tensor.Matrix, labels []float32) float64 {
	if logits.Rows == 0 {
		return 0
	}
	correct := 0
	for i, y := range labels {
		pred := float32(0)
		if logits.Data[i] >= 0 { // sigmoid(z) >= 0.5 iff z >= 0
			pred = 1
		}
		if pred == y {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}

// LogLoss returns the mean BCE without computing gradients, for eval passes.
func LogLoss(logits *tensor.Matrix, labels []float32) float64 {
	var total float64
	for i, y := range labels {
		z := float64(logits.Data[i])
		total += math.Max(z, 0) - float64(z*float64(y)) + math.Log1p(math.Exp(-math.Abs(z)))
	}
	if logits.Rows == 0 {
		return 0
	}
	return total / float64(logits.Rows)
}
