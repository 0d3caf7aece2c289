package huffman

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"dlrmcomp/internal/tensor"
)

// decodeFrame sizes the destination with SymbolCount and decodes through a
// fresh Decoder — the shipped way to read a frame of unknown length.
func decodeFrame(frame []byte) ([]uint32, error) {
	n, err := SymbolCount(frame)
	if err != nil {
		return nil, err
	}
	dst := make([]uint32, n)
	if _, err := NewDecoder().DecodeInto(dst, frame); err != nil {
		return nil, err
	}
	return dst, nil
}

func roundTrip(t *testing.T, syms []uint32) []byte {
	t.Helper()
	enc := NewEncoder().AppendEncode(nil, syms)
	dec, err := decodeFrame(enc)
	if err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	if len(dec) != len(syms) {
		t.Fatalf("decoded %d symbols, want %d", len(dec), len(syms))
	}
	for i := range syms {
		if dec[i] != syms[i] {
			t.Fatalf("symbol %d: got %d want %d", i, dec[i], syms[i])
		}
	}
	return enc
}

func TestBitIORoundTrip(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b101, 3)
	w.WriteBits(0b1, 1)
	w.WriteBits(0xDEAD, 16)
	w.WriteBits(0x1FFFFFFFFFFFFF, 53)
	data := w.Bytes()
	var r BitReader
	r.Reset(data)
	if v := r.ReadBits(3); v != 0b101 {
		t.Fatalf("got %b", v)
	}
	if v := r.ReadBits(1); v != 1 {
		t.Fatalf("got %b", v)
	}
	if v := r.ReadBits(16); v != 0xDEAD {
		t.Fatalf("got %x", v)
	}
	if v := r.ReadBits(53); v != 0x1FFFFFFFFFFFFF {
		t.Fatalf("got %x", v)
	}
}

func TestBitWriterWideWrites(t *testing.T) {
	var w BitWriter
	w.WriteBits(0xFFFFFFFFFFFFFFFF, 64)
	var r BitReader
	r.Reset(w.Bytes())
	if hi := r.ReadBits(32); hi != 0xFFFFFFFF {
		t.Fatalf("hi = %x", hi)
	}
	if lo := r.ReadBits(32); lo != 0xFFFFFFFF {
		t.Fatalf("lo = %x", lo)
	}
}

func TestEmpty(t *testing.T) { roundTrip(t, []uint32{}) }

func TestSingleSymbolRun(t *testing.T) {
	syms := make([]uint32, 1000)
	for i := range syms {
		syms[i] = 7
	}
	enc := roundTrip(t, syms)
	if len(enc) > 16 {
		t.Fatalf("constant run should compress to a few bytes, got %d", len(enc))
	}
}

func TestTwoSymbols(t *testing.T) {
	roundTrip(t, []uint32{0, 1, 0, 0, 1, 0})
}

func TestSkewedDistributionCompresses(t *testing.T) {
	// 90% zeros should approach ~0.47 bits/symbol entropy.
	rng := tensor.NewRNG(1)
	syms := make([]uint32, 10000)
	for i := range syms {
		if rng.Float64() < 0.9 {
			syms[i] = 0
		} else {
			syms[i] = uint32(rng.Intn(15)) + 1
		}
	}
	enc := roundTrip(t, syms)
	rawBytes := len(syms) * 4
	if ratio := float64(rawBytes) / float64(len(enc)); ratio < 10 {
		t.Fatalf("expected CR > 10 on skewed data, got %.1f", ratio)
	}
}

func TestUniformDataNearFixedWidth(t *testing.T) {
	rng := tensor.NewRNG(2)
	syms := make([]uint32, 8192)
	for i := range syms {
		syms[i] = uint32(rng.Intn(256))
	}
	enc := roundTrip(t, syms)
	// 8 bits/symbol ideal = 8192 bytes; allow table + slack.
	if len(enc) > 9500 {
		t.Fatalf("uniform 8-bit data encoded to %d bytes", len(enc))
	}
}

func TestGaussianQuantBins(t *testing.T) {
	// The paper's observation ❸: Gaussian-distributed bins compress well.
	rng := tensor.NewRNG(3)
	syms := make([]uint32, 20000)
	for i := range syms {
		v := int32(rng.NormFloat64() * 3)
		syms[i] = uint32((v << 1) ^ (v >> 31)) // zigzag
	}
	enc := roundTrip(t, syms)
	if float64(len(syms)*4)/float64(len(enc)) < 5 {
		t.Fatalf("Gaussian bins should compress > 5x, got %.1f",
			float64(len(syms)*4)/float64(len(enc)))
	}
}

func TestLargeAlphabet(t *testing.T) {
	rng := tensor.NewRNG(4)
	syms := make([]uint32, 5000)
	for i := range syms {
		syms[i] = uint32(rng.Uint64() % 100000)
	}
	roundTrip(t, syms)
}

func TestDeterministicEncoding(t *testing.T) {
	rng := tensor.NewRNG(5)
	syms := make([]uint32, 1000)
	for i := range syms {
		syms[i] = uint32(rng.Intn(32))
	}
	enc := NewEncoder()
	first := enc.AppendEncode(nil, syms)
	if !bytes.Equal(first, enc.AppendEncode(nil, syms)) || !bytes.Equal(first, NewEncoder().AppendEncode(nil, syms)) {
		t.Fatal("encoding must be deterministic")
	}
}

// TestDecodeCorruptFrames runs damaged frames through the shipped decoder
// (and SymbolCount, which sizes its destination): every one must be rejected.
func TestDecodeCorruptFrames(t *testing.T) {
	for name, frame := range map[string][]byte{
		"nil frame":                nil,
		"unknown mode":             {99},
		"truncated huffman header": {modeHuffman},
		"truncated huffman table":  {modeHuffman, 2, 5, 1},
		"zero code length":         {modeHuffman, 1, 5, 0, 1, 0},
		"over-long code length":    {modeHuffman, 1, 5, maxCodeLen + 1, 1, 0},
		"duplicated table symbol":  {modeHuffman, 2, 5, 1, 5, 1, 1, 0},
		"zero width raw":           {modeRaw, 0, 1},
		"over-wide raw":            {modeRaw, 33, 1, 0, 0, 0, 0, 0},
		"truncated raw count":      {modeRaw, 8},
		"const without its symbol": {modeConst, 3},
	} {
		if _, err := decodeFrame(frame); err == nil {
			t.Errorf("%s: decoder accepted the frame", name)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		syms := make([]uint32, len(raw))
		for i, v := range raw {
			syms[i] = uint32(v)
		}
		dec, err := decodeFrame(NewEncoder().AppendEncode(nil, syms))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(dec, syms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode64K(b *testing.B) {
	rng := tensor.NewRNG(6)
	syms := make([]uint32, 1<<16)
	for i := range syms {
		v := int32(rng.NormFloat64() * 5)
		syms[i] = uint32((v << 1) ^ (v >> 31))
	}
	enc := NewEncoder()
	var frame []byte
	b.SetBytes(int64(len(syms) * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame = enc.AppendEncode(frame[:0], syms)
	}
}

func BenchmarkDecode64K(b *testing.B) {
	rng := tensor.NewRNG(7)
	syms := make([]uint32, 1<<16)
	for i := range syms {
		v := int32(rng.NormFloat64() * 5)
		syms[i] = uint32((v << 1) ^ (v >> 31))
	}
	enc := NewEncoder().AppendEncode(nil, syms)
	dec := NewDecoder()
	dst := make([]uint32, len(syms))
	b.SetBytes(int64(len(syms) * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeInto(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}
