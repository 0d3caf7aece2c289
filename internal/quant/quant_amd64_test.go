package quant

import (
	"math"
	"testing"

	"dlrmcomp/internal/tensor"
)

// forEachBody runs fn once per body of the quantizer's loops this host can
// execute, the Go loops always and AVX where tensor.HasAVX holds, by switching
// useAVX; the selection package init made is put back afterwards.
func forEachBody(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer func(selected bool) { useAVX = selected }(useAVX)
	useAVX = false
	t.Run("go", fn)
	if tensor.HasAVX() {
		useAVX = true
		t.Run("avx", fn)
	}
}

// TestAVXDeclinesOnlyWhatItMust: the vector body converts every group it
// can and stops at exactly the first group holding a value roundCode
// declines. A body that declined everything would pass the parity tests
// while running the Go loop; this pins that it does not.
func TestAVXDeclinesOnlyWhatItMust(t *testing.T) {
	if !tensor.HasAVX() {
		t.Skip("no AVX on this host")
	}
	const n = 23
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i) * 0.37
	}
	codes := make([]int32, n)
	syms := make([]uint32, n)
	if got, _ := quantizeAVX(codes, syms, src, 0.02); got != n&^3 {
		t.Fatalf("all-convertible input: body stopped at %d, want %d", got, n&^3)
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(-1)), 1e30} {
		for j := 0; j < n; j++ {
			orig := src[j]
			src[j] = bad
			if got, _ := quantizeAVX(codes, syms, src, 0.02); got != min(j&^3, n&^3) {
				t.Errorf("value %v at %d: body stopped at %d, want %d", bad, j, got, min(j&^3, n&^3))
			}
			src[j] = orig
		}
	}
}
