// Package testutil holds cross-package test helpers. Layer: leaf, imported
// only from _test files; it imports internal/tensor and internal/codec, so
// those two packages' own tests cannot use it.
//
//   - RaceEnabled lets allocation-regression tests (testing.AllocsPerRun
//     pins) skip themselves under the race detector, whose instrumentation
//     allocates and defeats sync.Pool reuse; the race CI job covers
//     concurrency, the quick job covers allocs.
//   - FromSlice wraps literal data in a tensor.Matrix.
//   - MaxAbs and MaxError are the error-bound checks over float32 slices.
//   - RoundTrip compresses and decompresses a batch through any
//     codec.Codec and returns the reconstruction and the ratio.
//   - SetGOMAXPROCS pins GOMAXPROCS for one test, restoring it on cleanup.
//
// The shipped packages must not carry helpers only tests call: the root
// reachability gate (deadcode_test.go) exempts this package and no other.
package testutil
