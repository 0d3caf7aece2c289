package cuszlike

import (
	"encoding/binary"
	"math"
	"testing"

	"dlrmcomp/internal/quant"
	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

func TestRoundTripErrorBound(t *testing.T) {
	rng := tensor.NewRNG(1)
	src := make([]float32, 2048)
	rng.FillNormal(src, 0, 1)
	for _, pred := range []Predictor{Lorenzo1D, Lorenzo2D} {
		for _, eb := range []float32{0.001, 0.01, 0.1} {
			c := New(eb, pred)
			recon, _, err := testutil.RoundTrip(c, src, 32)
			if err != nil {
				t.Fatal(err)
			}
			if e := testutil.MaxError(src, recon); e > eb+1e-5 {
				t.Fatalf("pred %d eb %v: max error %v", pred, eb, e)
			}
		}
	}
}

func TestSmoothDataCompressesWell(t *testing.T) {
	// Scientific-like smooth field: Lorenzo prediction should shine.
	n := 8192
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(math.Sin(float64(i) * 0.01))
	}
	c := New(0.001, Lorenzo1D)
	_, ratio, err := testutil.RoundTrip(c, src, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 8 {
		t.Fatalf("smooth data should compress > 8x, got %.2f", ratio)
	}
}

func TestFalsePredictionRaisesEntropy(t *testing.T) {
	// Observation ❶: a batch of repeated-but-shuffled embedding rows has
	// LOWER raw-code entropy than residual entropy under Lorenzo.
	rng := tensor.NewRNG(2)
	dim := 16
	vocab := make([][]float32, 8)
	for v := range vocab {
		vocab[v] = make([]float32, dim)
		rng.FillNormal(vocab[v], 0, 0.5)
	}
	var src []float32
	for r := 0; r < 256; r++ {
		src = append(src, vocab[rng.Intn(8)]...)
	}
	c := New(0.01, Lorenzo2D)
	rawBits, residBits, err := c.ResidualEntropy(src, dim)
	if err != nil {
		t.Fatal(err)
	}
	if residBits <= rawBits {
		t.Fatalf("expected false prediction: raw %.2f bits vs resid %.2f bits",
			rawBits, residBits)
	}
}

func TestIdenticalRowsBecomeDistinctResiduals(t *testing.T) {
	// Fig. 4: identical vectors with different upstream neighbors yield
	// different residual rows under the 2-D stencil.
	dim := 4
	rowA := []float32{0.5, -0.5, 0.25, 0.75}
	rowB := []float32{0.1, 0.9, -0.3, 0.4}
	// Batch: A, A (same neighbor) then B, A (different neighbor).
	src := append(append(append(append([]float32{}, rowA...), rowA...), rowB...), rowA...)
	c := New(0.01, Lorenzo2D)
	q := quant.New(c.EB)
	codes := make([]int32, len(src))
	q.Quantize(codes, src)
	res := predictResiduals(codes, dim, Lorenzo2D)
	// Residual of row 1 (A preceded by A) vs row 3 (A preceded by B).
	same := true
	for j := 0; j < dim; j++ {
		if res[1*dim+j] != res[3*dim+j] {
			same = false
		}
	}
	if same {
		t.Fatal("identical rows should produce distinct residuals given different neighbors")
	}
}

func TestPredictInverses(t *testing.T) {
	rng := tensor.NewRNG(3)
	codes := make([]int32, 256)
	for i := range codes {
		codes[i] = int32(rng.Intn(100) - 50)
	}
	for _, pred := range []Predictor{Lorenzo1D, Lorenzo2D} {
		res := predictResiduals(codes, 16, pred)
		back := unpredict(res, 16, pred)
		for i := range codes {
			if back[i] != codes[i] {
				t.Fatalf("pred %d: unpredict mismatch at %d", pred, i)
			}
		}
	}
}

func TestErrorBoundedInterface(t *testing.T) {
	c := New(0.01, Lorenzo1D)
	c.SetErrorBound(0.05)
	if c.ErrorBound() != 0.05 {
		t.Fatal("SetErrorBound did not stick")
	}
	if c.Name() != "cusz-like" || New(0.01, Lorenzo2D).Name() != "cusz-like-2d" {
		t.Fatal("names wrong")
	}
	if !c.Lossy() {
		t.Fatal("must be lossy")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	c := New(0.01, Lorenzo1D)
	dst := make([]float32, 4)
	if _, err := c.DecompressInto(dst, []byte{1}); err == nil {
		t.Fatal("short frame should error")
	}
	valid, err := c.CompressAppend(nil, []float32{0.1, 0.2, 0.3, 0.4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A non-finite error bound in the header must be rejected, not
	// dequantized into NaN/Inf values.
	for _, eb := range []float32{float32(math.NaN()), float32(math.Inf(1)), 0, -0.01} {
		frame := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(frame[0:], math.Float32bits(eb))
		if _, err := c.DecompressInto(dst, frame); err == nil {
			t.Fatalf("header eb %v should error", eb)
		}
	}
	// A header count that is not the destination's is rejected, whichever
	// side is wrong: the damaged header against the right destination, and
	// the intact frame against a destination of another length.
	frame := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(frame[8:], 1<<31)
	if _, err := c.DecompressInto(dst, frame); err == nil {
		t.Fatal("header count 1<<31 over a 4-symbol payload should error")
	}
	if _, err := c.DecompressInto(make([]float32, 6), valid); err == nil {
		t.Fatal("a 4-value frame should not decode into 6 values")
	}
}

func TestCompressShapeErrors(t *testing.T) {
	if _, err := New(0.01, Lorenzo1D).CompressAppend(nil, []float32{1, 2, 3}, 2); err == nil {
		t.Fatal("bad shape should error")
	}
}
