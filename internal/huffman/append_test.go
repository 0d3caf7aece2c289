package huffman

import (
	"bytes"
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
		var maxSym uint32
		for _, s := range syms {
			if s > maxSym {
				maxSym = s
			}
		}
		if maxSym >= maxDenseSym {
			t.Fatalf("%s: test input does not qualify for the dense path", name)
		}
		ref := Encode(syms)
		dense := enc.appendEncodeDense(nil, syms, maxSym)
		if !bytes.Equal(ref, dense) {
			t.Fatalf("%s: dense path differs from Encode (%d vs %d bytes)", name, len(dense), len(ref))
		}
		mapped := enc.appendEncodeMap(nil, syms)
		if !bytes.Equal(ref, mapped) {
			t.Fatalf("%s: map path differs from Encode (%d vs %d bytes)", name, len(mapped), len(ref))
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
