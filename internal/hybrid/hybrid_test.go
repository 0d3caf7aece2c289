package hybrid

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

// hotKeyBatch builds a batch like embedding lookups under Zipf queries:
// many repeats of a small vocabulary of rows.
func hotKeyBatch(rng *tensor.RNG, rows, dim, vocabSize int, std float32) []float32 {
	vocab := make([][]float32, vocabSize)
	for v := range vocab {
		vocab[v] = make([]float32, dim)
		rng.FillNormal(vocab[v], 0, std)
	}
	var src []float32
	for r := 0; r < rows; r++ {
		v := rng.Intn(vocabSize)
		if rng.Float64() < 0.6 {
			v = rng.Intn(max(1, vocabSize/8)) // hot head
		}
		src = append(src, vocab[v]...)
	}
	return src
}

func TestRoundTripAllModes(t *testing.T) {
	rng := tensor.NewRNG(1)
	src := hotKeyBatch(rng, 256, 16, 32, 0.5)
	for _, mode := range []Mode{Auto, VectorLZ, Entropy} {
		c := New(0.01, mode)
		recon, ratio, err := testutil.RoundTrip(c, src, 16)
		if err != nil {
			t.Fatal(err)
		}
		if e := testutil.MaxError(src, recon); e > 0.01+1e-5 {
			t.Fatalf("mode %v: error bound violated: %v", mode, e)
		}
		if ratio < 1 {
			t.Fatalf("mode %v: ratio %.2f < 1", mode, ratio)
		}
	}
}

func TestAutoPicksSmallerFrame(t *testing.T) {
	rng := tensor.NewRNG(2)
	src := hotKeyBatch(rng, 512, 32, 16, 0.5)
	fv, err := New(0.01, VectorLZ).Compress(src, 32)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := New(0.01, Entropy).Compress(src, 32)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := New(0.01, Auto).Compress(src, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(fa) != min(len(fv), len(fh)) {
		t.Fatalf("auto frame %d, vlz %d, huffman %d", len(fa), len(fv), len(fh))
	}
}

func TestVLZWinsOnRepeatedRows(t *testing.T) {
	rng := tensor.NewRNG(3)
	// Tiny vocabulary -> massive row reuse -> vector LZ territory.
	src := hotKeyBatch(rng, 1024, 32, 8, 1.0)
	fa, err := New(0.01, Auto).Compress(src, 32)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := SubEncoderOf(fa)
	if err != nil {
		t.Fatal(err)
	}
	if sub != "vlz" {
		t.Fatalf("expected vlz to win on repeated rows, got %s", sub)
	}
}

func TestHuffmanWinsOnConcentratedUniqueRows(t *testing.T) {
	rng := tensor.NewRNG(4)
	// Every row unique but values concentrated near 0 (Gaussian):
	// no row repeats for LZ, low entropy for Huffman.
	n := 512 * 16
	src := make([]float32, n)
	rng.FillNormal(src, 0, 0.02)
	fa, err := New(0.01, Auto).Compress(src, 16)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := SubEncoderOf(fa)
	if err != nil {
		t.Fatal(err)
	}
	if sub != "huffman" {
		t.Fatalf("expected huffman to win on unique concentrated rows, got %s", sub)
	}
}

func TestLargerEBHigherRatio(t *testing.T) {
	rng := tensor.NewRNG(5)
	src := hotKeyBatch(rng, 512, 16, 200, 0.5)
	ratioAt := func(eb float32) float64 {
		frame, err := New(eb, Auto).Compress(src, 16)
		if err != nil {
			t.Fatal(err)
		}
		return codec.Ratio(len(src), frame)
	}
	if ratioAt(0.05) <= ratioAt(0.005) {
		t.Fatal("larger error bound should raise compression ratio")
	}
}

func TestErrorBoundHonoredProperty(t *testing.T) {
	f := func(seed uint16, ebSel, modeSel uint8) bool {
		rng := tensor.NewRNG(uint64(seed) + 1)
		eb := []float32{0.001, 0.01, 0.03, 0.1}[int(ebSel)%4]
		mode := []Mode{Auto, VectorLZ, Entropy}[int(modeSel)%3]
		dim := 1 + rng.Intn(32)
		rows := 1 + rng.Intn(64)
		src := make([]float32, rows*dim)
		rng.FillNormal(src, 0, 1)
		c := New(eb, mode)
		recon, _, err := testutil.RoundTrip(c, src, dim)
		if err != nil {
			return false
		}
		return testutil.MaxError(src, recon) <= eb+1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressValidation(t *testing.T) {
	if _, err := New(0.01, Auto).Compress([]float32{1, 2, 3}, 2); err == nil {
		t.Fatal("bad shape should error")
	}
	for _, eb := range []float32{0, -0.01, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if _, err := New(eb, Auto).Compress([]float32{1, 2}, 2); err == nil {
			t.Fatalf("eb %v should error", eb)
		}
	}
	if _, _, err := New(0.01, Auto).Decompress([]byte{1}); err == nil {
		t.Fatal("short frame should error")
	}
}

// TestHeaderValidation damages one header field of a valid frame at a time:
// every entry point that reads the header must reject the frame instead of
// decoding it (a NaN or +Inf error bound used to pass the eb <= 0 check and
// dequantize to NaN/Inf values with a nil error).
func TestHeaderValidation(t *testing.T) {
	src := hotKeyBatch(tensor.NewRNG(9), 32, 8, 4, 0.5)
	c := New(0.01, Auto)
	valid, err := c.Compress(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	f32 := func(v float64) []byte { return binary.LittleEndian.AppendUint32(nil, math.Float32bits(float32(v))) }
	u32 := func(v int) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(v)) }
	cases := []struct {
		name  string
		off   int
		patch []byte
	}{
		{"eb NaN", 0, f32(math.NaN())},
		{"eb +Inf", 0, f32(math.Inf(1))},
		{"eb -Inf", 0, f32(math.Inf(-1))},
		{"eb zero", 0, f32(0)},
		{"eb negative", 0, f32(-0.01)},
		{"dim zero", 4, u32(0)},
		{"count not a multiple of dim", 8, u32(len(src) + 1)},
		{"unknown sub-encoder", 12, []byte{2}},
	}
	dst := make([]float32, len(src))
	for _, tc := range cases {
		frame := append([]byte(nil), valid...)
		copy(frame[tc.off:], tc.patch)
		if vals, _, err := c.Decompress(frame); err == nil {
			t.Errorf("%s: Decompress returned %d values and no error", tc.name, len(vals))
		}
		if _, err := c.DecompressInto(dst, frame); err == nil {
			t.Errorf("%s: DecompressInto returned no error", tc.name)
		}
		if _, err := SubEncoderOf(frame); err == nil {
			t.Errorf("%s: SubEncoderOf returned no error", tc.name)
		}
	}
}

// TestHeaderCountsCannotWrap is the crafted frame that used to panic the
// decoder: a header of {dim 1<<31, no values, vector-LZ} over a payload
// claiming 1<<32 rows of 1<<32 codes. The payload's product wraps to zero in
// a 64-bit int, matched the empty destination, and the first literal indexed
// into it.
func TestHeaderCountsCannotWrap(t *testing.T) {
	frame := binary.LittleEndian.AppendUint32(nil, math.Float32bits(0.01))
	frame = binary.LittleEndian.AppendUint32(frame, 1<<31)
	frame = binary.LittleEndian.AppendUint32(frame, 0)
	frame = append(frame, subVLZ)
	frame = binary.AppendUvarint(frame, 1<<32)
	frame = binary.AppendUvarint(frame, 1<<32)
	frame = append(frame, 0, 0)
	c := New(0.01, Auto)
	if _, err := c.DecompressInto(nil, frame); err == nil {
		t.Error("DecompressInto accepted the frame")
	}
	if vals, _, err := c.Decompress(frame); err == nil {
		t.Errorf("Decompress returned %d values and no error", len(vals))
	}
}

func TestSpeedupModel(t *testing.T) {
	// Infinite codec throughput: speedup -> CR.
	tp := Throughput{Compress: 1e18, Decompress: 1e18}
	if s := Speedup(10, 4e9, tp); math.Abs(s-10) > 1e-6 {
		t.Fatalf("speedup = %v, want 10", s)
	}
	// Very slow codec: speedup < 1 even with great CR.
	slow := Throughput{Compress: 1e6, Decompress: 1e6}
	if s := Speedup(100, 4e9, slow); s >= 1 {
		t.Fatalf("slow codec should not speed up, got %v", s)
	}
	// Degenerate inputs.
	if Speedup(0, 4e9, tp) != 0 || Speedup(10, 4e9, Throughput{}) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
}

func TestSpeedupMonotoneInCR(t *testing.T) {
	tp := Throughput{Compress: 40e9, Decompress: 200e9}
	prev := 0.0
	for _, cr := range []float64{1, 2, 5, 10, 20} {
		s := Speedup(cr, 4e9, tp)
		if s <= prev {
			t.Fatalf("speedup should grow with CR: %v at cr=%v", s, cr)
		}
		prev = s
	}
}

func TestSelectEncoder(t *testing.T) {
	rng := tensor.NewRNG(6)
	src := hotKeyBatch(rng, 512, 16, 8, 1.0)
	mode, cands, err := SelectEncoder(src, 16, 0.01, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("want 2 candidates, got %d", len(cands))
	}
	// On heavy row reuse the selected encoder should achieve the better
	// ratio by a wide margin, and selection must return one of the modes.
	if mode != VectorLZ && mode != Entropy {
		t.Fatalf("unexpected mode %v", mode)
	}
	if _, _, err := SelectEncoder(nil, 16, 0.01, 4e9); err == nil {
		t.Fatal("empty sample should error")
	}
}

func TestNames(t *testing.T) {
	if New(0.01, Auto).Name() != "ours-hybrid" ||
		New(0.01, VectorLZ).Name() != "ours-vector" ||
		New(0.01, Entropy).Name() != "ours-huffman" {
		t.Fatal("mode names wrong")
	}
}
