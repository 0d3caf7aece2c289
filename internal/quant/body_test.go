package quant

import (
	"encoding/binary"
	"math"
	"testing"

	"dlrmcomp/internal/tensor"
)

// The tests in this file hold every body of the three loops the host can
// run (forEachBody) to the Go loops quantizeGo, dequantizeGo and
// dequantizeZigZagGo, bit for bit: codes, symbols, the returned maximum
// symbol and every float32 bit of a reconstruction, on every length and
// tail, on misaligned slices, and on the values where a vector quantizer
// goes wrong first.

// sentinel fills every output word before a body runs, so a value the
// body skips (a declined group it neither converts nor hands back) shows.
const sentinel = 0x5A5A5A5A

// bodySteps is the error-bound sweep the parity tests run, as the steps
// 2·eb the Quantizer methods pass: typical bounds down to the smallest
// normal float32.
func bodySteps() []float64 {
	var steps []float64
	for _, eb := range []float32{0.5, 0.05, 0.01, 1e-3, 1e-5, 1e-9, 1e-20, 1e-30, 1e-37, 0x1p-125, 0x1p-126} {
		steps = append(steps, 2*float64(eb))
	}
	return steps
}

// neighbours appends v and its n float32 neighbours on each side.
func neighbours(dst []float32, v float32, n int) []float32 {
	inf := float32(math.Inf(1))
	for j := 0; j < n; j++ {
		v = math.Nextafter32(v, -inf)
	}
	for j := -n; j <= n; j++ {
		dst = append(dst, v)
		v = math.Nextafter32(v, inf)
	}
	return dst
}

// hardValues returns, for one step and shuffled together so that every
// value the vector body must decline sits in some lane of an otherwise
// convertible group: ±0 and subnormals; every tie (k+½)·step for a spread
// of k and its ±8 float32 neighbours, both signs; |x|/step at and beyond
// 2³¹−1; ±MaxFloat32, ±Inf and NaNs whose payloads and signs differ.
func hardValues(step float64, seed uint64) []float32 {
	vals := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007FFFFF), math.Float32frombits(0x807FFFFF),
		math.Float32frombits(0x00012345), math.Float32frombits(0x80400000),
		math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)),
	}
	for _, bits := range []uint32{0x7FC00000, 0x7FC00001, 0x7FA00000, 0x7F800001, 0xFFC12345, 0xFFFFFFFF} {
		vals = append(vals, math.Float32frombits(bits))
	}
	var ks []float64
	for k := 0; k <= 40; k++ {
		ks = append(ks, float64(k))
	}
	for e := 6; e <= 31; e++ {
		ks = append(ks, math.Ldexp(1, e)-1, math.Ldexp(1, e))
	}
	for _, k := range ks {
		tie := float32((k + 0.5) * step)
		vals = neighbours(neighbours(vals, tie, 8), -tie, 8)
	}
	for _, m := range []float64{2147483646, 2147483647, 2147483647.5, 2147483648, 1 << 32, 1 << 40} {
		edge := float32(m * step)
		vals = neighbours(neighbours(vals, edge, 8), -edge, 8)
	}
	rng := tensor.NewRNG(seed)
	for i := len(vals) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		vals[i], vals[j] = vals[j], vals[i]
	}
	return vals
}

// checkBodies runs the selected bodies of all three loops over src at the
// given step, with src and every output off a 16-byte boundary by off
// elements, and fails unless each matches its Go loop bit for bit and
// leaves the words around its outputs alone.
func checkBodies(t *testing.T, src []float32, step float64, off int) {
	t.Helper()
	n := len(src)
	in := make([]float32, off+n)
	copy(in[off:], src)
	src = in[off:]

	wantCodes := make([]int32, n)
	wantSyms := make([]uint32, n)
	wantMax := quantizeGo(wantCodes, wantSyms, src, step)

	codeBuf := make([]int32, off+n+1)
	symBuf := make([]uint32, off+n+1)
	for i := range codeBuf {
		codeBuf[i], symBuf[i] = sentinel, sentinel
	}
	codes, syms := codeBuf[off:off+n], symBuf[off:off+n]
	if got := quantize(codes, syms, src, step); got != wantMax {
		t.Fatalf("step %v, %d values at offset %d: max symbol %d, Go loop %d", step, n, off, got, wantMax)
	}
	for i, v := range src {
		if codes[i] != wantCodes[i] || syms[i] != wantSyms[i] {
			t.Fatalf("step %v, %d values at offset %d: value %d (%v, bits %#08x) gives code %d symbol %d, Go loop %d %d",
				step, n, off, i, v, math.Float32bits(v), codes[i], syms[i], wantCodes[i], wantSyms[i])
		}
	}
	for i := range codeBuf[:off] {
		if codeBuf[i] != sentinel || symBuf[i] != sentinel {
			t.Fatalf("step %v: quantize wrote before its outputs", step)
		}
	}
	if codeBuf[off+n] != sentinel || symBuf[off+n] != sentinel {
		t.Fatalf("step %v, %d values at offset %d: quantize wrote past its outputs", step, n, off)
	}
	for i := range codes {
		codes[i] = sentinel
	}
	if got := quantize(codes, nil, src, step); got != 0 {
		t.Fatalf("step %v: codes-only quantize returned max symbol %d", step, got)
	}
	for i := range src {
		if codes[i] != wantCodes[i] {
			t.Fatalf("step %v, %d values at offset %d: codes-only value %d gives code %d, Go loop %d",
				step, n, off, i, codes[i], wantCodes[i])
		}
	}
	if codeBuf[off+n] != sentinel {
		t.Fatalf("step %v: codes-only quantize wrote past its output", step)
	}

	want := make([]float32, n)
	dequantizeGo(want, wantCodes, step)
	wantFused := make([]float32, n)
	dequantizeZigZagGo(wantFused, wantSyms, step)
	outBuf := make([]float32, off+n+1)
	for _, fused := range []bool{false, true} {
		for i := range outBuf {
			outBuf[i] = math.Float32frombits(sentinel)
		}
		out := outBuf[off : off+n]
		if fused {
			dequantizeZigZag(out, syms, step)
		} else {
			dequantize(out, codes, step)
		}
		for i := range out {
			got := math.Float32bits(out[i])
			if got != math.Float32bits(want[i]) || got != math.Float32bits(wantFused[i]) {
				t.Fatalf("step %v, %d values at offset %d, fused %v: code %d reconstructs to %#08x, Go loops %#08x and %#08x",
					step, n, off, fused, wantCodes[i], got, math.Float32bits(want[i]), math.Float32bits(wantFused[i]))
			}
		}
		if math.Float32bits(outBuf[off+n]) != sentinel {
			t.Fatalf("step %v, fused %v: dequantize wrote past its output", step, fused)
		}
	}
}

// TestQuantizeMatchesGo holds every body to the Go loops on the hard
// values of each step in the sweep: the whole shuffled set at every
// misalignment, then every length 0–17 (the vector groups and all three
// tail lengths) from a spread of starting points.
func TestQuantizeMatchesGo(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		for si, step := range bodySteps() {
			vals := hardValues(step, uint64(si))
			for off := 0; off < 4; off++ {
				checkBodies(t, vals, step, off)
			}
			for n := 0; n <= 17; n++ {
				for start := 0; start+n <= len(vals) && start < 64; start++ {
					checkBodies(t, vals[start:start+n], step, start%4)
				}
			}
		}
	})
}

// predHalfStep returns a step at which float64(v)/step is exactly
// pred(0.5), the one quotient where adding 0.5 instead of halfPred rounds
// wrong (the sum ties, and ties to even carry it to 1). No step 2·eb with a
// float32 eb produces that quotient from a float32 value (doc.go), so the
// bodies are held to the Go loops on float64 steps as well.
func predHalfStep(v float32) (float64, bool) {
	want := math.Nextafter(0.5, 0)
	s := float64(v) / want
	for i := 0; i < 4; i++ {
		switch x := float64(v) / s; {
		case x == want:
			return s, true
		case x < want:
			s = math.Nextafter(s, 0)
		default:
			s = math.Nextafter(s, math.Inf(1))
		}
	}
	return 0, false
}

// TestQuantizeMatchesGoAtPredHalf holds every body to the Go loops where
// x = ±pred(0.5), in every lane of a group, and checks that these inputs
// do tell halfPred from 0.5.
func TestQuantizeMatchesGoAtPredHalf(t *testing.T) {
	var found int
	forEachBody(t, func(t *testing.T) {
		found = 0
		for _, v := range []float32{1, 3, 5, 7, 0.1, 0.3, 0.7, 1e-3, 7e-3, 1.5e-5, 11, 13, 1e6, 3e10} {
			step, ok := predHalfStep(v)
			if !ok {
				continue
			}
			found++
			if x := float64(v) / step; int32(x+0.5) == int32(math.Round(x)) {
				t.Fatalf("v %v, step %v: x+0.5 rounds %v right, so it cannot tell halfPred from 0.5", v, step, x)
			}
			for lane := 0; lane < 4; lane++ {
				src := []float32{0.25, -0.25, 0.75, -0.75, 0.25, -0.25, 0.75, -0.75}
				src[lane], src[4+lane] = v, -v
				for off := 0; off < 4; off++ {
					checkBodies(t, src, step, off)
				}
			}
		}
	})
	if found == 0 {
		t.Fatal("no value found whose quotient is pred(0.5)")
	}
}

// TestDequantizeMatchesGo holds every body of both dequantize loops to the
// Go loops on codes across the whole int32 range (the float32 rounding of
// codes past 2²⁴, overflow to ±Inf, results that are subnormal or zero)
// and on steps beyond the sweep (huge, NaN, +Inf), at every length 0–17
// and misalignment.
func TestDequantizeMatchesGo(t *testing.T) {
	codes := []int32{0, 1, -1, 2, -2, 1<<24 + 1, -(1<<24 + 1), 1<<29 + 3, math.MaxInt32, math.MinInt32, math.MinInt32 + 1}
	rng := tensor.NewRNG(9)
	for len(codes) < 64 {
		codes = append(codes, int32(rng.Uint64()))
	}
	syms := make([]uint32, len(codes))
	ZigZagInto(syms, codes)
	steps := append(bodySteps(), 2e30, 3.4e38, math.NaN(), math.Inf(1))
	forEachBody(t, func(t *testing.T) {
		for _, step := range steps {
			for n := 0; n <= 17; n++ {
				for off := 0; off < 4; off++ {
					out := make([]float32, off+n)[off:]
					want := make([]float32, n)
					for _, fused := range []bool{false, true} {
						if fused {
							dequantizeZigZag(out, syms[off:off+n], step)
							dequantizeZigZagGo(want, syms[off:off+n], step)
						} else {
							dequantize(out, codes[off:off+n], step)
							dequantizeGo(want, codes[off:off+n], step)
						}
						for i := range out {
							if math.Float32bits(out[i]) != math.Float32bits(want[i]) {
								t.Fatalf("step %v, fused %v, %d values at offset %d: element %d is %#08x, Go loop %#08x",
									step, fused, n, off, i, math.Float32bits(out[i]), math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	})
}

// FuzzQuantize holds the bodies package init selected to the Go loops on
// arbitrary float32 bits (the input, four little-endian bytes a value) at
// an arbitrary float64 step.
func FuzzQuantize(f *testing.F) {
	seed := func(step float64, vals ...float32) {
		data := make([]byte, 0, 4*len(vals))
		for _, v := range vals {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(v))
		}
		f.Add(data, math.Float64bits(step))
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	seed(0.02, 0.01, -0.03, 0.05, 0.07, 1, -1, 0.5, 2, 3)
	seed(0.02, 0.01, nan, 0.05, 0.07, inf, -inf, 4.3e7, 2)
	seed(2e-38, 1e-38, 3e-38, 1, -1, math.SmallestNonzeroFloat32)
	if step, ok := predHalfStep(3); ok {
		seed(step, 3, -3, 1, 2, 3, 3, -3, 3)
	}
	f.Fuzz(func(t *testing.T, data []byte, stepBits uint64) {
		src := make([]float32, len(data)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkBodies(t, src, math.Float64frombits(stepBits), len(data)%4)
	})
}
