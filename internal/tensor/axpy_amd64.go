//go:build amd64

package tensor

// Implemented in axpy_amd64.s. Both trust their caller for the lengths;
// the exported wrappers in axpy.go are the only callers and check them.

//go:noescape
func axpy1(d, b []float32, a float32)

//go:noescape
func axpy4Rows(d0, d1, d2, d3, b []float32, stride int, c0, c1, c2, c3 []float32, skip bool)
