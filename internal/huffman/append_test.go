package huffman

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"dlrmcomp/internal/testutil"

	"dlrmcomp/internal/tensor"
)

// appendTestInputs spans the three frame modes plus the raw fallback for
// wide alphabets on tiny inputs.
func appendTestInputs() map[string][]uint32 {
	rng := tensor.NewRNG(123)
	skewed := make([]uint32, 4096)
	for i := range skewed {
		skewed[i] = uint32(rng.Intn(8))
		if rng.Float64() < 0.1 {
			skewed[i] = uint32(rng.Intn(200))
		}
	}
	wide := make([]uint32, 48)
	for i := range wide {
		wide[i] = uint32(i * 7919)
	}
	return map[string][]uint32{
		"skewed":   skewed,
		"constant": {5, 5, 5, 5, 5},
		"wide-raw": wide,
		"two-syms": {0, 1, 0, 0, 1, 0},
		"empty":    {},
	}
}

func maxOf(syms []uint32) (m uint32) {
	for _, s := range syms {
		m = max(m, s)
	}
	return m
}

// fibonacciInput returns symbols 0..k-1 with Fibonacci frequencies, shuffled:
// the input whose Huffman tree is a single spine, so the rarest symbols get
// codes k-1 bits long.
func fibonacciInput(k int) []uint32 {
	var syms []uint32
	a, b := 1, 1
	for s := 0; s < k; s++ {
		for i := 0; i < a; i++ {
			syms = append(syms, uint32(s))
		}
		a, b = b, a+b
	}
	rng := tensor.NewRNG(5)
	for i := len(syms) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		syms[i], syms[j] = syms[j], syms[i]
	}
	return syms
}

// TestDecodePrefixInto holds the prefix form to the whole-frame decode: for
// every input (every frame mode) and every prefix length, DecodePrefixInto
// writes exactly the first symbols DecodeInto does, and it rejects a
// destination longer than the frame.
func TestDecodePrefixInto(t *testing.T) {
	dec := NewDecoder()
	inputs := appendTestInputs()
	inputs["long-codes"] = fibonacciInput(14)
	for name, syms := range inputs {
		frame := NewEncoder().AppendEncode(nil, syms)
		step := max(1, len(syms)/200)
		for k := 0; k <= len(syms); k += step {
			dst := make([]uint32, k)
			if n, err := dec.DecodePrefixInto(dst, frame); err != nil || n != k {
				t.Fatalf("%s: prefix of %d: decoded %d, error %v", name, k, n, err)
			}
			if !slices.Equal(dst, syms[:k]) {
				t.Fatalf("%s: prefix of %d differs from the input", name, k)
			}
		}
		if _, err := dec.DecodePrefixInto(make([]uint32, len(syms)+1), frame); err == nil {
			t.Fatalf("%s: a prefix one symbol past the frame decoded", name)
		}
	}
}

// TestLongCodes runs inputs whose codes outgrow the decode table (11 bits)
// and the encoder's two-codes-per-store loop (28 bits) through the oracle
// parity and the round trip, so the long-code halves of both loops are held
// to the same bytes as the short ones.
func TestLongCodes(t *testing.T) {
	lens := []int{14, 24, 31}
	if testing.Short() {
		lens = lens[:2]
	}
	enc, dec := NewEncoder(), NewDecoder()
	for _, k := range lens {
		syms := fibonacciInput(k)
		frame := enc.AppendEncode(nil, syms)
		if !bytes.Equal(frame, Encode(syms)) {
			t.Fatalf("%d symbols: AppendEncode differs from Encode", k)
		}
		if enc.plan.mode != modeHuffman || int(enc.plan.maxLen) != k-1 {
			t.Fatalf("%d symbols: planned mode %d with codes up to %d bits, want Huffman up to %d", k, enc.plan.mode, enc.plan.maxLen, k-1)
		}
		got := make([]uint32, len(syms))
		if _, err := dec.DecodeInto(got, frame); err != nil {
			t.Fatalf("%d symbols: %v", k, err)
		}
		if !slices.Equal(got, syms) {
			t.Fatalf("%d symbols: round trip differs", k)
		}
	}
}

// TestDecodeLongestCodes hand-builds the frame no encoder input of sane size
// produces: a complete code with lengths 1, 2, …, 56, 57, 57, each symbol
// sent once in both orders. The decoder must follow codes up to maxCodeLen
// through its refill and slow path.
func TestDecodeLongestCodes(t *testing.T) {
	frame := []byte{modeHuffman, maxCodeLen + 1}
	var codes []uint64
	for s := 0; s <= maxCodeLen; s++ {
		l := min(s+1, maxCodeLen)
		frame = append(frame, byte(s), byte(l))
		// Canonical: 0, 10, 110, …; the last two share the longest length.
		code := uint64(1)<<l - 2
		if s == maxCodeLen {
			code++
		}
		codes = append(codes, code)
	}
	var want []uint32
	var w BitWriter
	send := func(s int) {
		want = append(want, uint32(s))
		w.WriteBits(codes[s], uint(min(s+1, maxCodeLen)))
	}
	for s := 0; s <= maxCodeLen; s++ {
		send(s)
	}
	for s := maxCodeLen; s >= 0; s-- {
		send(s)
	}
	frame = binary.AppendUvarint(frame, uint64(len(want)))
	frame = append(frame, w.Bytes()...)
	got := make([]uint32, len(want))
	if _, err := NewDecoder().DecodeInto(got, frame); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	for cut := len(frame) - 1; cut > len(frame)-len(w.Bytes()); cut-- {
		if _, err := NewDecoder().DecodeInto(got, frame[:cut]); err == nil {
			t.Fatalf("frame cut to %d of %d bytes decoded without error", cut, len(frame))
		}
	}
}

// TestDecodeTruncated cuts one frame of each mode at every length: a frame
// that ends before its symbols do is corrupt, not a run of zero bits. (The
// bit reader used to supply zeros past the end, and every cut inside the
// bitstream decoded to plausible symbols with a nil error.)
func TestDecodeTruncated(t *testing.T) {
	inputs := appendTestInputs()
	for name, wantMode := range map[string]byte{"skewed": modeHuffman, "wide-raw": modeRaw, "constant": modeConst} {
		syms := inputs[name]
		frame := NewEncoder().AppendEncode(nil, syms)
		if frame[0] != wantMode {
			t.Fatalf("%s: frame mode %d, want %d", name, frame[0], wantMode)
		}
		dst := make([]uint32, len(syms))
		dec := NewDecoder()
		if _, err := dec.DecodeInto(dst, frame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := dec.DecodeInto(dst, frame[:cut]); err == nil {
				t.Errorf("%s: frame cut to %d of %d bytes decoded without error", name, cut, len(frame))
			}
		}
	}
}

// TestAppendEncodeParity pins byte parity between the workspace encoder and
// the reference Encode across all frame modes, including reuse of a dirty
// encoder.
func TestAppendEncodeParity(t *testing.T) {
	enc := NewEncoder()
	for name, syms := range appendTestInputs() {
		ref := Encode(syms)
		for rep := 0; rep < 2; rep++ {
			got := enc.AppendEncode(nil, syms)
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s rep %d: AppendEncode differs from Encode (%d vs %d bytes)",
					name, rep, len(got), len(ref))
			}
		}
		// The size half alone must name the length the emit half then writes.
		if n := enc.Plan(syms, maxOf(syms)); n != len(ref) {
			t.Fatalf("%s: Plan sized the frame at %d bytes, Encode wrote %d", name, n, len(ref))
		}
		if got := enc.AppendPlanned(nil, syms); !bytes.Equal(ref, got) {
			t.Fatalf("%s: AppendPlanned after Plan differs from Encode", name)
		}
		withPrefix := enc.AppendEncode([]byte{0xEE}, syms)
		if withPrefix[0] != 0xEE || !bytes.Equal(withPrefix[1:], ref) {
			t.Fatalf("%s: prefix append corrupted the frame", name)
		}
	}
}

// TestDecodeIntoParity checks the workspace decoder reconstructs the oracle
// encoder's input exactly, and that SymbolCount sizes the destination
// correctly.
func TestDecodeIntoParity(t *testing.T) {
	dec := NewDecoder()
	for name, ref := range appendTestInputs() {
		frame := Encode(ref)
		n, err := SymbolCount(frame)
		if err != nil {
			t.Fatalf("%s: SymbolCount: %v", name, err)
		}
		if n != len(ref) {
			t.Fatalf("%s: SymbolCount = %d, want %d", name, n, len(ref))
		}
		dst := make([]uint32, n)
		if _, err := dec.DecodeInto(dst, frame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range dst {
			if dst[i] != ref[i] {
				t.Fatalf("%s: symbol %d is %d, want %d", name, i, dst[i], ref[i])
			}
		}
		if _, err := dec.DecodeInto(make([]uint32, n+1), frame); err == nil && n > 0 {
			t.Fatalf("%s: expected error for wrong-size destination", name)
		}
	}
}

// TestDensePathParity pins the dense-table encoding path against both the
// map path and the reference Encode: for any alphabet that qualifies for the
// dense tables, all three must emit identical bytes — including inputs
// engineered to sit near the Huffman-vs-raw decision boundary, where the
// dense path's arithmetic size comparison must pick the same winner the
// materialize-both comparison does.
func TestDensePathParity(t *testing.T) {
	rng := tensor.NewRNG(77)
	inputs := map[string][]uint32{
		"skewed":      appendTestInputs()["skewed"],
		"two-syms":    {0, 1, 0, 0, 1, 0},
		"near-dense":  {maxDenseSym - 1, 0, 1, maxDenseSym - 1, 2},
		"raw-wins":    {0, 1, 2, 3, 4, 5, 6, 7}, // uniform tiny input: raw beats Huffman
		"single-rare": {9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 3},
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		fuzz := make([]uint32, n)
		span := 1 + rng.Intn(64)
		for i := range fuzz {
			fuzz[i] = uint32(rng.Intn(span))
			if rng.Float64() < 0.05 {
				fuzz[i] = uint32(rng.Intn(maxDenseSym))
			}
		}
		inputs[string(rune('a'+trial%26))+"-fuzz"] = fuzz
	}
	enc := NewEncoder()
	for name, syms := range inputs {
		maxSym := maxOf(syms)
		if maxSym >= maxDenseSym {
			t.Fatalf("%s: test input does not qualify for the dense path", name)
		}
		ref := Encode(syms)
		enc.planDense(syms, maxSym)
		dense := enc.AppendPlanned(nil, syms)
		if !bytes.Equal(ref, dense) || enc.plan.size != len(ref) {
			t.Fatalf("%s: dense path differs from Encode (planned %d, emitted %d, want %d bytes)", name, enc.plan.size, len(dense), len(ref))
		}
		enc.planMap(syms)
		mapped := enc.AppendPlanned(nil, syms)
		if !bytes.Equal(ref, mapped) || enc.plan.size != len(ref) {
			t.Fatalf("%s: map path differs from Encode (planned %d, emitted %d, want %d bytes)", name, enc.plan.size, len(mapped), len(ref))
		}
		viaMax := enc.AppendEncodeMax(nil, syms, maxSym)
		if !bytes.Equal(ref, viaMax) {
			t.Fatalf("%s: AppendEncodeMax differs from Encode", name)
		}
	}
}

// TestAppendRoundTripAllocs pins the zero-allocation steady state.
func TestAppendRoundTripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pins are meaningless under the race detector (instrumented allocations, dropped pools)")
	}
	syms := appendTestInputs()["skewed"]
	enc := NewEncoder()
	dec := NewDecoder()
	var frame []byte
	dst := make([]uint32, len(syms))
	roundTrip := func() {
		frame = enc.AppendEncode(frame[:0], syms)
		if _, err := dec.DecodeInto(dst, frame); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 0 {
		t.Fatalf("steady-state round trip allocates %.1f times per op, want 0", allocs)
	}
}
