package testutil

import (
	"fmt"
	"runtime"
	"testing"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/tensor"
)

// FromSlice wraps data (len rows*cols) in a Matrix without copying.
func FromSlice(rows, cols int, data []float32) *tensor.Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("testutil: FromSlice len %d != %d*%d", len(data), rows, cols))
	}
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: data}
}

// MaxAbs returns the largest absolute value in x (0 for empty x).
func MaxAbs(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// MaxError returns the largest absolute difference between orig and recon.
func MaxError(orig, recon []float32) float32 {
	if len(orig) != len(recon) {
		panic("testutil: MaxError length mismatch")
	}
	var m float32
	for i, v := range orig {
		d := v - recon[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// RoundTrip compresses and immediately decompresses src, returning the
// reconstruction and the achieved ratio.
func RoundTrip(c codec.Codec, src []float32, dim int) (recon []float32, ratio float64, err error) {
	frame, err := c.CompressAppend(nil, src, dim)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: compress: %w", c.Name(), err)
	}
	recon = make([]float32, len(src))
	gotDim, err := c.DecompressInto(recon, frame)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: decompress: %w", c.Name(), err)
	}
	if gotDim != dim {
		return nil, 0, fmt.Errorf("%s: round trip dim %d != %d", c.Name(), gotDim, dim)
	}
	return recon, codec.Ratio(len(src), frame), nil
}

// SetGOMAXPROCS sets runtime.GOMAXPROCS to n for the rest of the test and
// restores the previous value when it ends. Tests that vary a derived
// width (the trainer's intra-rank width is GOMAXPROCS/Ranks) use it instead
// of a knob.
func SetGOMAXPROCS(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
