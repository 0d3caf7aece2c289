// Package tensor provides the dense float32 linear-algebra kernels that the
// DLRM substrate is built on: row-major matrices, matrix products (including
// transposed forms used by backpropagation), and elementwise vector helpers.
//
// All of the dense math sits on one vector primitive, d[j] += a*b[j] over
// one destination row, or four rows through a run of terms that either adds
// every term or skips zero coefficients (Axpy, Axpy4Rows, MatMul4Rows,
// Axpy4Skip; axpy.go), and on its register-held form, a 4×16 tile of four
// rows that adds every term (axpy4Tile), with the moves that lay operands
// out for it (Transpose4, GatherRows, Symmetrize, PackLower). Each
// function has one assembly body,
// eight-lane AVX (axpy_amd64.s), selected once at package init where CPUID
// and XGETBV report it (HasAVX, the probe internal/quant selects its AVX
// bodies by too). Every other host, amd64 without AVX included, runs the
// equivalent Go loop, which is also the oracle the assembly is tested
// against. The three matrix products (blocked.go) pack their b operand
// into 16-column panels in scratch the caller owns (Panels) and run every
// whole 4×16 block of the output as one tile over an L1-resident slice of
// a panel; MatMul and MatMulTransA, whose naive loops skip zero terms,
// fall back to the skipping four-row passes when b holds an Inf or a NaN.
// The large products are split by output row across a persistent worker
// pool (pool.go) when the work is big enough to pay for the fan-out.
//
// Vector lanes, row tiles and worker spans all cut across different output
// elements; each element is one float32 accumulator fed its terms one at a
// time in ascending order, exactly as the scalar loop feeds it. Results are
// therefore bitwise identical to the naive loop nests (naive_test.go) on
// every path, which the trainer's reproducibility guarantees are built on.
//
// Layer: the bottom of the model substrate — internal/nn, internal/model,
// and the codecs all build on it. It also hosts the deterministic RNG
// (NewRNG/FillNormal) that keeps every workload, initialization, and
// experiment bitwise reproducible across runs, which the trainer parity
// tests depend on.
//
// Key types: Matrix (row-major, with the MatMulWorkers and
// MatMulTrans{A,B}Workers products), Panels (a product's packing scratch),
// RNG (splitmix-based, seeded everywhere a stream of randomness is
// needed), and the Axpy/Axpy4Rows/MatMul4Rows/Axpy4Skip/Scale/Dot vector
// helpers.
package tensor
