package tensor

import "fmt"

// Test conveniences over the Workers entry points the model calls. The
// package's own tests cannot use internal/testutil, which imports tensor.

// FromSlice wraps data (len rows*cols) in a Matrix without copying.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice len %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Equal reports whether m and n have the same shape and elements within tol.
func (m *Matrix) Equal(n *Matrix, tol float32) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if d := v - n.Data[i]; d > tol || d < -tol {
			return false
		}
	}
	return true
}

// MatMul is MatMulWorkers at GOMAXPROCS width.
func MatMul(dst, a, b *Matrix) { MatMulWorkers(0, dst, a, b) }

// MatMulTransB is MatMulTransBWorkers at GOMAXPROCS width without a
// workspace.
func MatMulTransB(dst, a, b *Matrix) { MatMulTransBWorkers(0, dst, a, b, nil) }

// MatMulTransA is MatMulTransAWorkers at GOMAXPROCS width.
func MatMulTransA(dst, a, b *Matrix) { MatMulTransAWorkers(0, dst, a, b) }
