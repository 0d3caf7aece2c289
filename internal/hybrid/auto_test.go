package hybrid

import (
	"bytes"
	"fmt"
	"testing"
)

// tiedRows builds uniq distinct rows of small bin codes, repeated reps times
// in rotation — the family in which vector-LZ and Huffman frames of equal
// length are easy to find.
func tiedRows(dim, uniq, reps int) []float32 {
	var src []float32
	for r := 0; r < reps; r++ {
		for u := 0; u < uniq; u++ {
			for j := 0; j < dim; j++ {
				src = append(src, float32(u+j%2)*0.02)
			}
		}
	}
	return src
}

// TestAutoEqualsForcedOracle holds the size-first Auto mode to the rule it
// replaced: the frame is the shorter of the forced vector-LZ and forced
// entropy frames, ties to vector-LZ. Auto never materializes the loser now,
// so the forced modes are the oracle — over the whole golden matrix and over
// inputs built to sit on the decision's edges.
func TestAutoEqualsForcedOracle(t *testing.T) {
	// Nine rows of eight codes: eight identical, then one that differs. Up to
	// the last row vector-LZ has written 11 bytes against a 16-byte Huffman
	// frame; the run token and the last literal take it to 23.
	lastRow := make([]float32, 9*8)
	for i := range lastRow {
		lastRow[i] = 0.02
		if i >= 8*8 {
			lastRow[i] = 0.04
		}
	}
	allEqual := make([]float32, 512*16)
	for i := range allEqual {
		allEqual[i] = -0.26
	}
	edges := []parityCase{
		{"tie-huffman", tiedRows(6, 6, 18), 6},
		{"tie-raw", tiedRows(2, 1, 9), 2},
		{"over-budget-on-last-row", lastRow, 8},
		{"all-equal", allEqual, 16},
	}
	forced := func(mode Mode, eb float32, tc parityCase) []byte {
		t.Helper()
		frame, err := New(eb, mode).Compress(tc.src, tc.dim)
		if err != nil {
			t.Fatalf("%v/eb=%v/%s: %v", mode, eb, tc.name, err)
		}
		return frame
	}
	for _, eb := range []float32{0.001, 0.01, 0.1} {
		for _, tc := range append(parityCases(), edges...) {
			label := fmt.Sprintf("eb=%v/%s", eb, tc.name)
			fv, fh := forced(VectorLZ, eb, tc), forced(Entropy, eb, tc)
			want := fv
			if len(fh) < len(fv) {
				want = fh
			}
			if got := forced(Auto, eb, tc); !bytes.Equal(got, want) {
				t.Errorf("%s: Auto frame of %d bytes is not the oracle's (vector-LZ %d, entropy %d)", label, len(got), len(fv), len(fh))
			}
			// The edge inputs must still sit on their edges (at the bound
			// they were built for).
			if eb != 0.01 {
				continue
			}
			switch tc.name {
			case "tie-huffman", "tie-raw":
				if len(fv) != len(fh) {
					t.Errorf("%s: vector-LZ %d bytes, entropy %d: no longer a tie", label, len(fv), len(fh))
				}
			case "over-budget-on-last-row":
				head := forced(VectorLZ, eb, parityCase{tc.name, tc.src[:len(tc.src)-tc.dim], tc.dim})
				if !(len(head) <= len(fh) && len(fh) < len(fv)) {
					t.Errorf("%s: vector-LZ %d bytes before the last row, %d after, entropy %d: budget not crossed on the last row", label, len(head), len(fv), len(fh))
				}
			case "all-equal":
				if sub, _ := SubEncoderOf(want); sub != "huffman" || len(fh) >= len(fv) {
					t.Errorf("%s: const frame of %d bytes does not beat literal+run of %d", label, len(fh), len(fv))
				}
			}
		}
	}
}

// TestDecompressTruncated cuts one frame per entropy frame mode (and one
// vector-LZ frame) at every length: DecompressInto and Decompress must reject
// every cut. A frame cut inside a Huffman or raw bitstream used to decode to
// plausible values with a nil error.
func TestDecompressTruncated(t *testing.T) {
	cases := parityCases()
	for _, pick := range []struct {
		name  string
		eb    float32
		mode  Mode
		first byte // first payload byte: the entropy frame mode, or vector-LZ's dim
	}{
		{"noise128x16", 0.1, Entropy, 0},  // Huffman bitstream
		{"noise-wide", 0.001, Entropy, 1}, // raw fixed-width bitstream
		{"constant", 0.01, Entropy, 2},    // const frame
		{"hotkeys256x16", 0.01, VectorLZ, 16},
	} {
		var tc parityCase
		for _, c := range cases {
			if c.name == pick.name {
				tc = c
			}
		}
		c := New(pick.eb, pick.mode)
		frame, err := c.Compress(tc.src, tc.dim)
		if err != nil {
			t.Fatal(err)
		}
		if frame[headerLen] != pick.first {
			t.Fatalf("%s: payload starts with %d, want %d", pick.name, frame[headerLen], pick.first)
		}
		dst := make([]float32, len(tc.src))
		if _, err := c.DecompressInto(dst, frame); err != nil {
			t.Fatalf("%s: %v", pick.name, err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := c.DecompressInto(dst, frame[:cut]); err == nil {
				t.Errorf("%s: DecompressInto accepted the frame cut to %d of %d bytes", pick.name, cut, len(frame))
			}
		}
	}
}
