package quant

import (
	"math"
	"testing"
	"testing/quick"

	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

func TestRoundTripRespectsErrorBound(t *testing.T) {
	rng := tensor.NewRNG(1)
	src := make([]float32, 4096)
	rng.FillNormal(src, 0, 1)
	for _, eb := range []float32{0.001, 0.01, 0.05, 0.5} {
		q := New(eb)
		codes := make([]int32, len(src))
		q.Quantize(codes, src)
		recon := make([]float32, len(src))
		q.Dequantize(recon, codes)
		if e := testutil.MaxError(src, recon); e > eb*(1+1e-5) {
			t.Fatalf("eb %v violated: max error %v", eb, e)
		}
	}
}

func TestQuantizeKnownValues(t *testing.T) {
	q := New(0.5) // step = 1.0
	src := []float32{0, 0.4, 0.6, -0.6, 1.5, -1.5}
	codes := make([]int32, len(src))
	q.Quantize(codes, src)
	want := []int32{0, 0, 1, -1, 2, -2}
	for i, w := range want {
		if codes[i] != w {
			t.Fatalf("codes[%d] = %d, want %d", i, codes[i], w)
		}
	}
}

func TestVectorHomogenization(t *testing.T) {
	// Two vectors whose elements differ by less than the bin width must
	// quantize to identical codes — the paper's Vector Homogenization.
	q := New(0.05)
	a := []float32{0.50, 0.30, -0.20}
	b := []float32{0.52, 0.28, -0.21} // within 0.05 of a, same bins
	ca := make([]int32, 3)
	cb := make([]int32, 3)
	q.Quantize(ca, a)
	q.Quantize(cb, b)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("vectors should homogenize: codes %v vs %v", ca, cb)
		}
	}
}

func TestLargerEBMergesMoreBins(t *testing.T) {
	rng := tensor.NewRNG(2)
	src := make([]float32, 2048)
	rng.FillNormal(src, 0, 1)
	unique := func(eb float32) int {
		q := New(eb)
		codes := make([]int32, len(src))
		q.Quantize(codes, src)
		set := make(map[int32]bool)
		for _, c := range codes {
			set[c] = true
		}
		return len(set)
	}
	if unique(0.1) >= unique(0.001) {
		t.Fatal("larger error bound must not increase unique code count")
	}
}

func TestZigZag(t *testing.T) {
	cases := map[int32]uint32{0: 0, -1: 1, 1: 2, -2: 3, 2: 4, 1 << 20: 1 << 21}
	for v, w := range cases {
		if got := ZigZag(v); got != w {
			t.Fatalf("ZigZag(%d) = %d, want %d", v, got, w)
		}
		if back := UnZigZag(w); back != v {
			t.Fatalf("UnZigZag(%d) = %d, want %d", w, back, v)
		}
	}
}

func TestZigZagRoundTripProperty(t *testing.T) {
	f := func(v int32) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeRoundTripProperty(t *testing.T) {
	f := func(raw []uint32, ebSel uint8) bool {
		eb := []float32{0.001, 0.01, 0.02, 0.1}[int(ebSel)%4]
		src := make([]float32, len(raw))
		for i, r := range raw {
			// Map to a bounded range to avoid float32 code overflow.
			src[i] = (float32(r%20000) - 10000) / 1000.0
		}
		q := New(eb)
		codes := make([]int32, len(src))
		q.Quantize(codes, src)
		recon := make([]float32, len(src))
		q.Dequantize(recon, codes)
		// Allow one float32 ulp at the max magnitude (10) beyond the bound.
		return testutil.MaxError(src, recon) <= eb+2e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceHelpers(t *testing.T) {
	codes := []int32{0, -1, 5, -100}
	if got := UnZigZagSlice(ZigZagSlice(codes)); len(got) != len(codes) {
		t.Fatal("length mismatch")
	} else {
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("round trip [%d] = %d", i, got[i])
			}
		}
	}
}

func TestNewPanicsOnBadEB(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for eb <= 0")
		}
	}()
	New(0)
}

// TestRoundingMatchesMathRound holds the quantize kernel to the expression it
// replaced, int32(math.Round(float64(v)/step)), on the inputs where a
// rounding shortcut goes wrong: every k+0.5 tie and its two float32
// neighbours, the largest value below 0.5, signed zeros, denormals, the ±2³¹
// conversion edge, non-finite values, and a few million random bit patterns.
func TestRoundingMatchesMathRound(t *testing.T) {
	maxK, random := 1<<23, 4<<20
	if testing.Short() {
		maxK, random = 1<<16, 1<<18
	}
	inf := float32(math.Inf(1))
	const block = 1 << 15
	src := make([]float32, 0, block+8)
	codes := make([]int32, cap(src))
	fused := make([]int32, cap(src))
	syms := make([]uint32, cap(src))
	for _, eb := range []float32{1e-4, 5e-3, 1e-2, 0.5} {
		step := 2 * float64(eb)
		q := New(eb)
		check := func() {
			q.Quantize(codes[:len(src)], src)
			q.QuantizeZigZag(fused[:len(src)], syms[:len(src)], src)
			for i, v := range src {
				want := int32(math.Round(float64(v) / step))
				if codes[i] != want || fused[i] != want || syms[i] != ZigZag(want) {
					t.Fatalf("eb %v: value %v (bits %#08x) quantizes to %d (fused %d, symbol %d), math.Round gives %d",
						eb, v, math.Float32bits(v), codes[i], fused[i], syms[i], want)
				}
			}
			src = src[:0]
		}
		// add queues v and its two float32 neighbours.
		add := func(v float32) {
			src = append(src, math.Nextafter32(v, -inf), v, math.Nextafter32(v, inf))
			if len(src) >= block {
				check()
			}
		}
		for k := 0; k <= maxK; k++ {
			tie := float32((float64(k) + 0.5) * step)
			add(tie)
			add(-tie)
		}
		predHalf := math.Nextafter(0.5, 0)
		edge := float32(math.Ldexp(1, 31) * step)
		for _, v := range []float32{
			0, float32(math.Copysign(0, -1)),
			float32(predHalf * step), float32(-predHalf * step), float32(predHalf), float32(-predHalf),
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39,
			edge, -edge, edge - float32(step), -edge + float32(step),
			math.MaxFloat32, -math.MaxFloat32, inf, -inf, float32(math.NaN()),
		} {
			add(v)
		}
		rng := tensor.NewRNG(uint64(math.Float32bits(eb)))
		for i := 0; i < random; i++ {
			add(math.Float32frombits(uint32(rng.Uint64())))
		}
		check()
	}
}

func BenchmarkQuantizeZigZag(b *testing.B) {
	src := make([]float32, 1<<16)
	tensor.NewRNG(3).FillNormal(src, 0, 0.05)
	codes := make([]int32, len(src))
	syms := make([]uint32, len(src))
	q := New(0.01)
	b.SetBytes(int64(len(src) * 4))
	for i := 0; i < b.N; i++ {
		q.QuantizeZigZag(codes, syms, src)
	}
}
