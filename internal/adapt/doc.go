// Package adapt implements the paper's dual-level adaptive error-bound
// strategy (§III-C, Algorithm 1):
//
//   - Table-wise: each embedding table is classified by its Homogenization
//     Index (Eq. 1) into Large / Medium / Small error-bound classes, so that
//     tables whose vectors collapse heavily under quantization get tighter
//     bounds and insensitive tables get looser ones.
//   - Iteration-wise: during the initial training phase the error bound
//     starts at a multiple of its base value and decays to the base via a
//     configurable decay function (stepwise by default, per Fig. 5), then
//     stays constant for the rest of training.
//
// Algorithm 2 (compressor selection by the Eq. 2 speed-up model) is
// hybrid.SelectEncoder; the table2 experiment runs it per table after
// OfflineAnalysis has classified the tables.
//
// Layer: policy above the codecs. internal/dist consumes a Controller to
// re-tune every error-bounded codec at the start of each iteration; the
// scenario engine and the experiment drivers run the offline phase.
// The package charges no sim-time buckets — the offline phase is free by
// the paper's accounting (it runs once, before training).
//
// Key types: PatternStats (per-table homogenization statistics, Eq. 1),
// Class/Thresholds/EBConfig (the L/M/S classification and its bounds),
// OfflineResult/OfflineOptions (Algorithm 1 output), Controller
// (EBAt(table, iter), the iteration-wise decay), Schedule (decay function
// family), and the AutoTune helpers for global error-bound search.
package adapt
