package lz4like

import (
	"bytes"
	"compress/flate"
	"runtime"
	"testing"
	"testing/quick"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

func byteRoundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := compressBytes(nil, src, make([]int32, len(src)))
	dec := make([]byte, len(src))
	if err := DecompressBytes(dec, enc); err != nil {
		t.Fatalf("DecompressBytes: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch over %d bytes", len(src))
	}
	return enc
}

func TestBytesEmpty(t *testing.T) { byteRoundTrip(t, nil) }

func TestBytesShort(t *testing.T) { byteRoundTrip(t, []byte{1, 2, 3}) }

func TestBytesRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 500)
	enc := byteRoundTrip(t, src)
	if len(enc) > len(src)/10 {
		t.Fatalf("repetitive data should compress 10x+: %d -> %d", len(src), len(enc))
	}
}

func TestBytesOverlappingMatch(t *testing.T) {
	// RLE-style runs exercise overlapping copies (dist < len).
	src := bytes.Repeat([]byte{0xAA}, 1000)
	byteRoundTrip(t, src)
}

func TestBytesRandomIncompressible(t *testing.T) {
	rng := tensor.NewRNG(1)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(rng.Uint64())
	}
	enc := byteRoundTrip(t, src)
	// Should not inflate by more than the token framing overhead.
	if len(enc) > len(src)+len(src)/8+16 {
		t.Fatalf("random data inflated too much: %d -> %d", len(src), len(enc))
	}
}

func TestBytesWindowLimit(t *testing.T) {
	// A repeat farther back than Window bytes must not be matched;
	// correctness must still hold.
	pattern := make([]byte, 64)
	for i := range pattern {
		pattern[i] = byte(i * 7)
	}
	rng := tensor.NewRNG(2)
	filler := make([]byte, Window+100)
	for i := range filler {
		filler[i] = byte(rng.Uint64())
	}
	src := append(append(append([]byte{}, pattern...), filler...), pattern...)
	byteRoundTrip(t, src)
}

func TestBytesRoundTripProperty(t *testing.T) {
	f := func(src []byte) bool {
		dec := make([]byte, len(src))
		return DecompressBytes(dec, compressBytes(nil, src, make([]int32, len(src)))) == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDecompressCorrupt feeds both decoders damaged and hostile frames. Each
// must be rejected, and rejected cheaply: the decoder is handed its
// destination, so a length read from the frame can cost at most a scratch
// buffer of the destination's size (plus flate's fixed reader state) — a
// match of 2^40 bytes or a stream inflating to 16 MB is refused before it is
// copied or read.
func TestDecompressCorrupt(t *testing.T) {
	header := func(dim, n uint32, payload ...byte) []byte {
		return append(appendHeader(nil, int(dim), int(n)), payload...)
	}
	deflated := func(dim, n uint32, raw []byte) []byte {
		var buf bytes.Buffer
		w, _ := flate.NewWriter(&buf, flate.BestSpeed)
		w.Write(raw)
		w.Close()
		return header(dim, n, buf.Bytes()...)
	}
	good, err := DeflateCodec{}.CompressAppend(nil, []float32{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var lzss, deflate codec.Codec = LZSSCodec{}, DeflateCodec{}
	for _, tc := range []struct {
		name  string
		c     codec.Codec
		n     int // destination length
		frame []byte
	}{
		{"short header", lzss, 1, []byte{1, 0, 0}},
		{"unknown token", lzss, 1, header(1, 1, 9)},
		{"match before start", lzss, 1, header(1, 1, 1, 10, 5)},
		{"truncated literal run", lzss, 64, header(1, 64, 0, 200, 1)},
		{"literal run past destination", lzss, 1, header(1, 1, 0, 5, 1, 2, 3, 4, 5)},
		{"2^40-byte match", lzss, 1, header(1, 1, 0, 1, 0xAB, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)},
		{"stream ends early", lzss, 2, header(1, 2, 0, 4, 1, 2, 3, 4)},
		{"count differs from destination", lzss, 3, header(1, 1, 0, 4, 1, 2, 3, 4)},
		{"zero dim", lzss, 1, header(0, 1, 0, 4, 1, 2, 3, 4)},
		{"deflate inflates past count", deflate, 1, deflated(1, 1, make([]byte, 16<<20))},
		{"deflate ends early", deflate, 2, deflated(1, 2, []byte{1, 2, 3, 4})},
		{"deflate truncated", deflate, 2, good[:len(good)-3]},
		{"deflate garbage", deflate, 1, header(1, 1, 0xFF, 0xFF, 0xFF)},
		{"deflate count differs from destination", deflate, 3, good},
	} {
		dst := make([]float32, tc.n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.c.DecompressInto(dst, tc.frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
			t.Errorf("%s: rejecting a %d-value frame allocated %d bytes", tc.name, tc.n, got)
		}
	}
}

func TestLZSSCodecRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(3)
	// Batch with repeated rows (compressible) — byte-level LZ should find
	// the aligned whole-row repeats when they are adjacent.
	dim := 16
	row := make([]float32, dim)
	rng.FillNormal(row, 0, 1)
	var src []float32
	for r := 0; r < 128; r++ {
		src = append(src, row...)
	}
	recon, ratio, err := testutil.RoundTrip(LZSSCodec{}, src, dim)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if recon[i] != src[i] {
			t.Fatal("lossless codec changed data")
		}
	}
	if ratio < 5 {
		t.Fatalf("identical rows should compress well, got %.2f", ratio)
	}
}

func TestLZSSLowRatioOnRandomFloats(t *testing.T) {
	// The paper's point: raw float mantissas defeat byte-level LZ.
	rng := tensor.NewRNG(4)
	src := make([]float32, 4096)
	rng.FillNormal(src, 0, 1)
	frame, err := (LZSSCodec{}).CompressAppend(nil, src, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r := codec.Ratio(len(src), frame); r > 1.5 {
		t.Fatalf("random floats should barely compress, got %.2f", r)
	}
}

func TestDeflateCodecRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(5)
	src := make([]float32, 1024)
	rng.FillNormal(src, 0, 1)
	recon, _, err := testutil.RoundTrip(DeflateCodec{}, src, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if recon[i] != src[i] {
			t.Fatal("deflate is lossless; data changed")
		}
	}
}

func TestCodecNames(t *testing.T) {
	if (LZSSCodec{}).Name() != "lz4-like" {
		t.Fatal("LZSS name wrong")
	}
	if (DeflateCodec{}).Name() != "deflate" {
		t.Fatal("Deflate name wrong")
	}
}

func BenchmarkCompressBytes64K(b *testing.B) {
	rng := tensor.NewRNG(6)
	src := make([]byte, 1<<16)
	for i := range src {
		src[i] = byte(rng.Intn(16)) // mildly compressible
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		compressBytes(nil, src, make([]int32, len(src)))
	}
}
