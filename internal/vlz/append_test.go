package vlz

import (
	"bytes"
	"testing"

	"dlrmcomp/internal/testutil"

	"dlrmcomp/internal/tensor"
)

// appendTestBatches covers the regimes the encoder sees: heavy row reuse
// (windowed matches and runs), all-unique rows (pure literals, exercises
// eviction), and tiny inputs.
func appendTestBatches() []struct {
	name string
	dim  int
	rows []int32
} {
	rng := tensor.NewRNG(99)
	mk := func(rows, dim, vocab int) []int32 {
		pool := make([][]int32, vocab)
		for v := range pool {
			pool[v] = make([]int32, dim)
			for j := range pool[v] {
				pool[v][j] = int32(rng.Intn(40) - 20)
			}
		}
		out := make([]int32, 0, rows*dim)
		for r := 0; r < rows; r++ {
			out = append(out, pool[rng.Intn(vocab)]...)
		}
		return out
	}
	unique := make([]int32, 600*4)
	for i := range unique {
		unique[i] = int32(i)
	}
	return []struct {
		name string
		dim  int
		rows []int32
	}{
		{"reuse", 8, mk(500, 8, 30)},
		{"runs", 4, mk(400, 4, 2)},
		{"unique-evicting", 4, unique},
		{"single-row", 16, mk(1, 16, 1)},
		{"empty", 8, nil},
	}
}

// TestAppendEncodeParity pins the tentpole's bit-parity contract: the
// hash-chain AppendEncode emits byte-identical frames to the reference
// Encode for every batch shape and window, including windows small enough
// to force eviction.
func TestAppendEncodeParity(t *testing.T) {
	for _, tc := range appendTestBatches() {
		for _, w := range []int{4, 32, DefaultWindow} {
			ref, err := New(w).Encode(tc.rows, tc.dim)
			if err != nil {
				t.Fatalf("%s w%d: %v", tc.name, w, err)
			}
			enc := New(w)
			for rep := 0; rep < 2; rep++ { // second rep runs on a dirty workspace
				got, err := enc.AppendEncode(nil, tc.rows, tc.dim)
				if err != nil {
					t.Fatalf("%s w%d: %v", tc.name, w, err)
				}
				if !bytes.Equal(ref, got) {
					t.Fatalf("%s w%d rep %d: AppendEncode differs from Encode (%d vs %d bytes)",
						tc.name, w, rep, len(got), len(ref))
				}
			}
			// Appending after existing bytes leaves the prefix alone.
			withPrefix, err := enc.AppendEncode([]byte{0xAB, 0xCD}, tc.rows, tc.dim)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(withPrefix[:2], []byte{0xAB, 0xCD}) || !bytes.Equal(withPrefix[2:], ref) {
				t.Fatalf("%s w%d: prefix append corrupted the frame", tc.name, w)
			}
		}
	}
}

// TestDecodeIntoParity checks DecodeInto reconstructs the oracle encoder's
// input exactly, into a caller buffer, across the same batch set.
func TestDecodeIntoParity(t *testing.T) {
	dec := NewDecoder()
	for _, tc := range appendTestBatches() {
		frame, err := New(16).Encode(tc.rows, tc.dim)
		if err != nil {
			t.Fatal(err)
		}
		ref, refDim := tc.rows, tc.dim
		dst := make([]int32, len(tc.rows))
		dim, err := dec.DecodeInto(dst, frame)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if dim != refDim {
			t.Fatalf("%s: dim %d != %d", tc.name, dim, refDim)
		}
		if len(ref) != len(dst) {
			t.Fatalf("%s: length %d != %d", tc.name, len(dst), len(ref))
		}
		for i := range dst {
			if dst[i] != ref[i] {
				t.Fatalf("%s: code %d is %d, want %d", tc.name, i, dst[i], ref[i])
			}
		}
	}
}

func TestDecodeIntoWrongSize(t *testing.T) {
	frame, err := New(0).Encode([]int32{1, 2, 3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder().DecodeInto(make([]int32, 3), frame); err == nil {
		t.Fatal("expected error for undersized destination")
	}
	rows, dim, err := RowCount(frame)
	if err != nil || rows != 2 || dim != 2 {
		t.Fatalf("RowCount = (%d, %d, %v), want (2, 2, nil)", rows, dim, err)
	}
}

// TestAppendRoundTripAllocs pins the zero-allocation steady state of the
// buffered pair: after warmup, encode+decode of a batch must not touch the
// heap.
func TestAppendRoundTripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pins are meaningless under the race detector (instrumented allocations, dropped pools)")
	}
	tc := appendTestBatches()[0]
	enc := New(32)
	dec := NewDecoder()
	var frame []byte
	dst := make([]int32, len(tc.rows))
	roundTrip := func() {
		var err error
		frame, err = enc.AppendEncode(frame[:0], tc.rows, tc.dim)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.DecodeInto(dst, frame); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the workspaces and the frame buffer
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 0 {
		t.Fatalf("steady-state round trip allocates %.1f times per op, want 0", allocs)
	}
}
