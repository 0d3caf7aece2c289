// Package nn implements the neural-network substrate for DLRM: fully
// connected layers, activations, multi-layer perceptrons, the binary
// cross-entropy training criterion, and the SGD optimizer the open-source
// DLRM reference implementation trains with.
//
// All layers follow the same contract: Forward consumes a batch (rows =
// samples) and caches whatever it needs; Backward consumes dL/d(output) and
// returns dL/d(input) while accumulating parameter gradients, which
// SGD.Step then applies.
//
// Layer: bottom of the model substrate, over internal/tensor kernels.
// Clone support on Linear/MLP is what lets internal/dist build
// bit-identical data-parallel replicas; the FLOPs these layers perform are
// priced into the "mlp" sim-time bucket by the trainer, not here.
//
// Key types: Linear, MLP (with Clone), Param (value+gradient pair exposed
// to SGD and the distributed gradient flattener), SGD, BCEWithLogits
// (loss + logit gradient), and the Accuracy/LogLoss evaluation helpers.
package nn
