package testutil

import "testing"

func TestMaxAbs(t *testing.T) {
	x := []float32{-3, 1, 2}
	if MaxAbs(x) != 3 {
		t.Fatalf("MaxAbs = %v, want 3", MaxAbs(x))
	}
	if MaxAbs(nil) != 0 {
		t.Fatal("MaxAbs(nil) != 0")
	}
	if e := MaxError([]float32{1, -2}, []float32{1.5, -4}); e != 2 {
		t.Fatalf("MaxError = %v, want 2", e)
	}
}
