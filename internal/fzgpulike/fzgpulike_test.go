package fzgpulike

import (
	"testing"
	"testing/quick"

	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

func TestBitshuffleRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, n := range []int{1, 31, 32, 33, 100, 1024} {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(rng.Uint64())
		}
		back := Unbitshuffle(Bitshuffle(vals), n)
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
	}
}

func TestBitshuffleSmallSymbolsZeroHighPlanes(t *testing.T) {
	vals := make([]uint32, 64)
	for i := range vals {
		vals[i] = uint32(i % 4) // only 2 bits used
	}
	planes := Bitshuffle(vals)
	// Planes 2..31 of both blocks must be zero.
	for blk := 0; blk < 2; blk++ {
		for b := 2; b < 32; b++ {
			if planes[blk*32+b] != 0 {
				t.Fatalf("plane %d of block %d not zero", b, blk)
			}
		}
	}
}

func TestBitshuffleProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		back := Unbitshuffle(Bitshuffle(vals), len(vals))
		if len(back) != len(vals) {
			return false
		}
		for i := range vals {
			if back[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroRLERoundTripProperty(t *testing.T) {
	f := func(src []byte) bool {
		dec := make([]byte, len(src))
		if err := unZeroRLE(dec, zeroRLE(nil, src)); err != nil {
			return false
		}
		for i := range src {
			if dec[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripErrorBound(t *testing.T) {
	rng := tensor.NewRNG(2)
	src := make([]float32, 4096)
	rng.FillNormal(src, 0, 0.3)
	for _, eb := range []float32{0.001, 0.01, 0.1} {
		c := New(eb)
		recon, _, err := testutil.RoundTrip(c, src, 64)
		if err != nil {
			t.Fatal(err)
		}
		if e := testutil.MaxError(src, recon); e > eb+1e-5 {
			t.Fatalf("eb %v violated: %v", eb, e)
		}
	}
}

func TestCompressesSmallCodes(t *testing.T) {
	// Concentrated values -> small bins -> zero planes -> good ratio.
	rng := tensor.NewRNG(3)
	src := make([]float32, 8192)
	rng.FillNormal(src, 0, 0.02)
	c := New(0.01)
	_, ratio, err := testutil.RoundTrip(c, src, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 5 {
		t.Fatalf("small-bin data should compress > 5x, got %.2f", ratio)
	}
}

func TestLowerRatioThanEntropyOnGaussian(t *testing.T) {
	// FZ-GPU trades ratio for speed: bit-plane RLE cannot beat ~fixed-width
	// coding of Gaussian bins. We only check it stays positive and modest.
	rng := tensor.NewRNG(4)
	src := make([]float32, 8192)
	rng.FillNormal(src, 0, 1)
	c := New(0.01)
	_, ratio, err := testutil.RoundTrip(c, src, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1.5 || ratio > 10 {
		t.Fatalf("unexpected ratio %.2f for wide Gaussian", ratio)
	}
}

func TestErrorBoundedInterface(t *testing.T) {
	c := New(0.01)
	c.SetErrorBound(0.2)
	if c.ErrorBound() != 0.2 {
		t.Fatal("SetErrorBound did not stick")
	}
	if c.Name() != "fz-gpu-like" || !c.Lossy() {
		t.Fatal("metadata wrong")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	c := New(0.01)
	dst := make([]float32, 4)
	if _, err := c.DecompressInto(dst, []byte{1, 2}); err == nil {
		t.Fatal("short frame should error")
	}
	if _, err := c.DecompressInto(nil, make([]byte, 12)); err == nil {
		t.Fatal("zero eb frame should error")
	}
	valid, err := c.CompressAppend(nil, []float32{0.1, 0.2, 0.3, 0.4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecompressInto(make([]float32, 6), valid); err == nil {
		t.Fatal("a 4-value frame should not decode into 6 values")
	}
	// A zero run of 2^40 bytes is refused before it is applied: the planes
	// buffer is sized from the destination, not from the token.
	hostile := append(append([]byte(nil), valid[:headerLen]...), 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	if _, err := c.DecompressInto(dst, hostile); err == nil {
		t.Fatal("a 2^40-byte zero run should error")
	}
}

func BenchmarkCompress8K(b *testing.B) {
	rng := tensor.NewRNG(5)
	src := make([]float32, 8192)
	rng.FillNormal(src, 0, 0.1)
	c := New(0.01)
	b.SetBytes(int64(len(src) * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompressAppend(nil, src, 64); err != nil {
			b.Fatal(err)
		}
	}
}
