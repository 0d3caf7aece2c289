package lowprec

import (
	"math"
	"testing"
	"testing/quick"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

func TestF16KnownValues(t *testing.T) {
	cases := map[float32]uint16{
		0:      0x0000,
		1:      0x3C00,
		-1:     0xBC00,
		2:      0x4000,
		0.5:    0x3800,
		65504:  0x7BFF, // max finite half
		1e9:    0x7C00, // overflow -> +Inf
		0.0001: 0x068E, // subnormal-range value, within rounding
	}
	for f, want := range cases {
		got := F32ToF16(f)
		if f == 0.0001 {
			// Round-trip accuracy matters more than exact bits here.
			back := F16ToF32(got)
			if math.Abs(float64(back-f))/float64(f) > 0.01 {
				t.Fatalf("F16 round trip of %v = %v", f, back)
			}
			continue
		}
		if got != want {
			t.Fatalf("F32ToF16(%v) = %#x, want %#x", f, got, want)
		}
	}
}

func TestF16RoundTripPrecision(t *testing.T) {
	rng := tensor.NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := float32(rng.NormFloat64())
		back := F16ToF32(F32ToF16(f))
		// binary16 has 11 significand bits -> rel err <= 2^-11.
		if f != 0 && math.Abs(float64(back-f))/math.Abs(float64(f)) > 1.0/2048+1e-7 {
			t.Fatalf("rel err too big: %v -> %v", f, back)
		}
	}
}

func TestF16SpecialValues(t *testing.T) {
	if !math.IsInf(float64(F16ToF32(0x7C00)), 1) {
		t.Fatal("0x7C00 should decode to +Inf")
	}
	if !math.IsInf(float64(F16ToF32(0xFC00)), -1) {
		t.Fatal("0xFC00 should decode to -Inf")
	}
	if v := F16ToF32(F32ToF16(float32(math.NaN()))); v == v {
		t.Fatal("NaN should round-trip to NaN")
	}
	if F16ToF32(0x8000) != 0 || math.Signbit(float64(F16ToF32(0x8000))) != true {
		t.Fatal("negative zero should survive")
	}
}

func TestF8E4M3KnownValues(t *testing.T) {
	// 1.0 = sign 0, exp field 7 (bias 7), mant 0 -> 0x38
	if got := F32ToF8(1, E4M3); got != 0x38 {
		t.Fatalf("F32ToF8(1) = %#x, want 0x38", got)
	}
	if got := F8ToF32(0x38, E4M3); got != 1 {
		t.Fatalf("F8ToF32(0x38) = %v", got)
	}
	// Max finite E4M3 = 448.
	if got := F8ToF32(F32ToF8(10000, E4M3), E4M3); got != 448 {
		t.Fatalf("E4M3 saturation = %v, want 448", got)
	}
	if got := F8ToF32(F32ToF8(-10000, E4M3), E4M3); got != -448 {
		t.Fatalf("E4M3 negative saturation = %v", got)
	}
}

func TestF8E5M2Saturation(t *testing.T) {
	if got := F8ToF32(F32ToF8(1e9, E5M2), E5M2); got != 57344 {
		t.Fatalf("E5M2 saturation = %v, want 57344", got)
	}
}

func TestF8RoundTripRelError(t *testing.T) {
	rng := tensor.NewRNG(2)
	for _, format := range []FP8Format{E4M3, E5M2} {
		maxRel := 1.0 / 16 // e4m3: 3 mantissa bits -> 2^-4 = 1/16 half-ulp bound
		if format == E5M2 {
			maxRel = 1.0 / 8
		}
		// E4M3 normals start at 2^-6, E5M2 normals at 2^-14; below that the
		// format is subnormal with absolute (not relative) precision.
		minNormal := math.Ldexp(1, -6)
		if format == E5M2 {
			minNormal = math.Ldexp(1, -14)
		}
		for i := 0; i < 5000; i++ {
			f := float32(rng.NormFloat64() * 0.5)
			if math.Abs(float64(f)) < minNormal {
				continue
			}
			back := F8ToF32(F32ToF8(f, format), format)
			rel := math.Abs(float64(back-f)) / math.Abs(float64(f))
			if rel > maxRel+1e-6 {
				t.Fatalf("%v: rel err %v for %v -> %v", format, rel, f, back)
			}
		}
	}
}

func TestF8ZeroAndSign(t *testing.T) {
	for _, format := range []FP8Format{E4M3, E5M2} {
		if F8ToF32(F32ToF8(0, format), format) != 0 {
			t.Fatal("zero must round trip")
		}
		if F8ToF32(F32ToF8(-2, format), format) != -2 {
			t.Fatalf("%v: -2 must round trip exactly", format)
		}
	}
}

func TestF16MonotoneProperty(t *testing.T) {
	f := func(a, b float32) bool {
		if a != a || b != b || math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		fa, fb := F16ToF32(F32ToF16(a)), F16ToF32(F32ToF16(b))
		return fa <= fb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFP16CodecRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(3)
	src := make([]float32, 256)
	rng.FillNormal(src, 0, 0.1)
	c := FP16Codec{}
	recon, ratio, err := testutil.RoundTrip(c, src, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1.9 || ratio > 2.0 {
		t.Fatalf("FP16 ratio = %v, want ~2", ratio)
	}
	for i := range src {
		if math.Abs(float64(recon[i]-src[i])) > 0.001 {
			t.Fatalf("recon[%d] too far: %v vs %v", i, recon[i], src[i])
		}
	}
}

func TestFP8CodecRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(4)
	src := make([]float32, 512)
	rng.FillNormal(src, 0, 0.1)
	c := FP8Codec{Format: E4M3}
	if c.Name() != "fp8-e4m3" {
		t.Fatalf("name %q", c.Name())
	}
	recon, ratio, err := testutil.RoundTrip(c, src, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 3.8 || ratio > 4.0 {
		t.Fatalf("FP8 ratio = %v, want ~4", ratio)
	}
	for i := range src {
		if src[i] != 0 && math.Abs(float64(recon[i]-src[i]))/math.Abs(float64(src[i])) > 0.15 {
			if math.Abs(float64(src[i])) > 1e-2 {
				t.Fatalf("recon[%d] rel err too big: %v vs %v", i, recon[i], src[i])
			}
		}
	}
}

func TestCodecCorruptFrames(t *testing.T) {
	dst := make([]float32, 2)
	if _, err := (FP16Codec{}).DecompressInto(dst, []byte{1, 2}); err == nil {
		t.Fatal("short fp16 frame should error")
	}
	if _, err := (FP8Codec{}).DecompressInto(dst, []byte{1}); err == nil {
		t.Fatal("short fp8 frame should error")
	}
	if _, err := (FP16Codec{}).CompressAppend(nil, []float32{1, 2, 3}, 2); err == nil {
		t.Fatal("bad shape should error")
	}
	for _, c := range []codec.Codec{FP16Codec{}, FP8Codec{Format: E4M3}} {
		valid, err := c.CompressAppend(nil, []float32{1, 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DecompressInto(make([]float32, 4), valid); err == nil {
			t.Fatalf("%s: a 2-value frame should not decode into 4 values", c.Name())
		}
		if _, err := c.DecompressInto(dst, valid[:len(valid)-1]); err == nil {
			t.Fatalf("%s: truncated frame should error", c.Name())
		}
	}
}
