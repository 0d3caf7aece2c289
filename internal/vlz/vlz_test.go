package vlz

import (
	"testing"
	"testing/quick"

	"dlrmcomp/internal/tensor"
)

// decodeFrame sizes the destination with RowCount and decodes through a
// fresh Decoder — the shipped way to read a frame of unknown shape.
func decodeFrame(frame []byte) (codes []int32, dim int, err error) {
	rows, dim, err := RowCount(frame)
	if err != nil {
		return nil, 0, err
	}
	codes = make([]int32, rows*dim)
	if dim, err = NewDecoder().DecodeInto(codes, frame); err != nil {
		return nil, 0, err
	}
	return codes, dim, nil
}

func roundTrip(t *testing.T, enc *Encoder, codes []int32, dim int) []byte {
	t.Helper()
	frame, err := enc.AppendEncode(nil, codes, dim)
	if err != nil {
		t.Fatalf("AppendEncode: %v", err)
	}
	dec, gotDim, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	if gotDim != dim {
		t.Fatalf("dim %d, want %d", gotDim, dim)
	}
	if len(dec) != len(codes) {
		t.Fatalf("decoded %d codes, want %d", len(dec), len(codes))
	}
	for i := range codes {
		if dec[i] != codes[i] {
			t.Fatalf("code %d: got %d want %d", i, dec[i], codes[i])
		}
	}
	return frame
}

func TestEmptyBatch(t *testing.T) {
	roundTrip(t, New(0), nil, 4)
}

func TestSingleRow(t *testing.T) {
	roundTrip(t, New(64), []int32{1, -2, 3, 0}, 4)
}

func TestAllIdenticalRows(t *testing.T) {
	dim := 8
	rows := 256
	codes := make([]int32, rows*dim)
	for r := 0; r < rows; r++ {
		for j := 0; j < dim; j++ {
			codes[r*dim+j] = int32(j - 3)
		}
	}
	frame := roundTrip(t, New(64), codes, dim)
	// One literal + 255 match tokens: should be tiny.
	if len(frame) > 3+dim*2+rows*3 {
		t.Fatalf("identical rows frame too large: %d bytes", len(frame))
	}
	st, err := New(64).EncodeStats(codes, dim)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matched != rows-1 || st.Literals != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.UniqueRows != 1 {
		t.Fatalf("unique rows = %d", st.UniqueRows)
	}
}

func TestAllDistinctRows(t *testing.T) {
	dim := 4
	rows := 100
	codes := make([]int32, rows*dim)
	for i := range codes {
		codes[i] = int32(i)
	}
	st, err := New(32).EncodeStats(codes, dim)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matched != 0 || st.Literals != rows {
		t.Fatalf("stats = %+v", st)
	}
	roundTrip(t, New(32), codes, dim)
}

func TestZipfRepeatedRows(t *testing.T) {
	// Simulate hot embedding rows: 16 distinct rows, Zipf-ish frequencies.
	rng := tensor.NewRNG(1)
	dim := 16
	vocab := make([][]int32, 16)
	for v := range vocab {
		vocab[v] = make([]int32, dim)
		for j := range vocab[v] {
			vocab[v][j] = int32(rng.Intn(100) - 50)
		}
	}
	rows := 512
	codes := make([]int32, 0, rows*dim)
	for r := 0; r < rows; r++ {
		v := rng.Intn(4) // heavy reuse of first 4 rows
		if rng.Float64() < 0.2 {
			v = rng.Intn(16)
		}
		codes = append(codes, vocab[v]...)
	}
	frame := roundTrip(t, New(255), codes, dim)
	cr := float64(len(codes)*4) / float64(len(frame))
	if cr < 10 {
		t.Fatalf("expected CR > 10 on hot-key batch, got %.2f", cr)
	}
}

func TestWindowLimitsMatches(t *testing.T) {
	// Rows recur with period > window: small window finds no matches,
	// large window finds all repeats.
	dim := 4
	period := 64
	rows := 4 * period
	codes := make([]int32, 0, rows*dim)
	for r := 0; r < rows; r++ {
		base := int32(r % period)
		codes = append(codes, base, base+1, base+2, base+3)
	}
	small, err := New(16).EncodeStats(codes, dim)
	if err != nil {
		t.Fatal(err)
	}
	large, err := New(128).EncodeStats(codes, dim)
	if err != nil {
		t.Fatal(err)
	}
	if small.Matched != 0 {
		t.Fatalf("window 16 should miss period-64 repeats, matched %d", small.Matched)
	}
	if large.Matched != rows-period {
		t.Fatalf("window 128 should match all repeats: %d vs %d", large.Matched, rows-period)
	}
	roundTrip(t, New(16), codes, dim)
	roundTrip(t, New(128), codes, dim)
}

func TestWindowSweepMonotoneCR(t *testing.T) {
	// Table VI: larger windows never hurt CR on repeat-heavy data.
	rng := tensor.NewRNG(2)
	dim := 8
	vocab := make([][]int32, 200)
	for v := range vocab {
		vocab[v] = make([]int32, dim)
		for j := range vocab[v] {
			vocab[v][j] = int32(rng.Intn(1000))
		}
	}
	rows := 1024
	codes := make([]int32, 0, rows*dim)
	for r := 0; r < rows; r++ {
		codes = append(codes, vocab[rng.Intn(200)]...)
	}
	prevSize := 1 << 30
	for _, w := range []int{32, 64, 128, 255} {
		frame := roundTrip(t, New(w), codes, dim)
		if len(frame) > prevSize {
			t.Fatalf("window %d inflated frame: %d > %d", w, len(frame), prevSize)
		}
		prevSize = len(frame)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := New(8).AppendEncode(nil, []int32{1, 2, 3}, 2); err == nil {
		t.Fatal("non-divisible length should error")
	}
	if _, err := New(8).AppendEncode(nil, []int32{1}, 0); err == nil {
		t.Fatal("zero dim should error")
	}
}

// TestDecodeCorrupt runs damaged frames through the shipped decoder (and
// RowCount, which sizes its destination): every one must be rejected.
func TestDecodeCorrupt(t *testing.T) {
	for name, frame := range map[string][]byte{
		"nil frame":              nil,
		"zero dim":               {0, 1, 0},
		"truncated row count":    {4},
		"truncated token stream": {4, 2, 0, 1, 2, 3, 4},
		"truncated literal":      {4, 1, 0, 1, 2},
		"offset beyond ring":     {4, 10, 1, 200},
		"zero offset":            {2, 2, 0, 1, 2, 1, 0},
		"unknown token":          {4, 1, 9},
		"run past the row count": {2, 3, 0, 1, 2, 2, 1, 200},
		"zero-length run":        {2, 3, 0, 1, 2, 2, 1, 0},
		// dim = rows = 1<<32: the product wraps to 0 in a 64-bit int, which
		// used to match an empty destination and index into it.
		"rows×dim wraps to zero": {0x80, 0x80, 0x80, 0x80, 0x10, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0},
	} {
		if _, _, err := decodeFrame(frame); err == nil {
			t.Errorf("%s: decoder accepted the frame", name)
		}
		// None of them is an empty batch either, whatever RowCount said.
		if _, err := NewDecoder().DecodeInto(nil, frame); err == nil {
			t.Errorf("%s: decoder accepted the frame into an empty destination", name)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw []int16, dimSel, winSel uint8) bool {
		dim := 1 + int(dimSel)%8
		win := []int{1, 4, 32, 255}[int(winSel)%4]
		n := (len(raw) / dim) * dim
		codes := make([]int32, n)
		for i := 0; i < n; i++ {
			codes[i] = int32(raw[i]) % 64 // induce repeats
		}
		frame, err := New(win).AppendEncode(nil, codes, dim)
		if err != nil {
			return false
		}
		dec, gotDim, err := decodeFrame(frame)
		if err != nil || gotDim != dim || len(dec) != len(codes) {
			return false
		}
		for i := range codes {
			if dec[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowOneStillCatchesAdjacentDuplicates(t *testing.T) {
	codes := []int32{5, 5, 5, 5, 9, 9} // rows: [5 5] [5 5] [9 9]
	st, err := New(1).EncodeStats(codes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matched != 1 {
		t.Fatalf("adjacent duplicate should match with window 1, stats %+v", st)
	}
	roundTrip(t, New(1), codes, 2)
}

func BenchmarkEncodeBatch2048x64(b *testing.B) {
	rng := tensor.NewRNG(3)
	dim := 64
	vocab := make([][]int32, 500)
	for v := range vocab {
		vocab[v] = make([]int32, dim)
		for j := range vocab[v] {
			vocab[v][j] = int32(rng.Intn(200) - 100)
		}
	}
	rows := 2048
	codes := make([]int32, 0, rows*dim)
	for r := 0; r < rows; r++ {
		codes = append(codes, vocab[rng.Intn(500)]...)
	}
	enc := New(255)
	var frame []byte
	var err error
	b.SetBytes(int64(len(codes) * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if frame, err = enc.AppendEncode(frame[:0], codes, dim); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunTokenCompresssIdenticalBatch(t *testing.T) {
	// A whole batch of one repeated vector must collapse to a few bytes
	// (the paper's 915x-CR tables are this case).
	dim := 64
	rows := 2048
	codes := make([]int32, rows*dim)
	for r := 0; r < rows; r++ {
		for j := 0; j < dim; j++ {
			codes[r*dim+j] = int32(j)
		}
	}
	frame := roundTrip(t, New(255), codes, dim)
	cr := float64(len(codes)*4) / float64(len(frame))
	if cr < 1000 {
		t.Fatalf("identical batch should exceed 1000x, got %.0fx (frame %dB)", cr, len(frame))
	}
}

func TestRunTokenAlternatingOffsets(t *testing.T) {
	// Alternating rows break runs; correctness must survive.
	a := []int32{1, 2}
	b := []int32{3, 4}
	var codes []int32
	for i := 0; i < 64; i++ {
		codes = append(codes, a...)
		codes = append(codes, b...)
	}
	roundTrip(t, New(8), codes, 2)
	st, err := New(8).EncodeStats(codes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Literals != 2 || st.Matched != 126 {
		t.Fatalf("stats = %+v", st)
	}
}
