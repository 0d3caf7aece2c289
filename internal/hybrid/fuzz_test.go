package hybrid

import (
	"math"
	"testing"

	"dlrmcomp/internal/quant"
)

// fuzzMaxValues bounds the destination a fuzz input may ask for: the count
// in a header is the attacker's, the allocation is ours.
const fuzzMaxValues = 1 << 16

// FuzzDecompressInto feeds arbitrary bytes to the frame decoder, seeded with
// real frames of the golden matrix (every mode, cut short so the engine's
// minimizer keeps up) and the crafted count-wrapping frame. The decoder must
// not panic and must either fail or fill exactly the destination; Decompress
// must agree with it; and a frame it accepts must survive a re-encode:
// compressing the decoded values at the frame's bound and decoding that gives
// values whose bin codes are the ones the frame held.
func FuzzDecompressInto(f *testing.F) {
	for _, mode := range []Mode{Auto, VectorLZ, Entropy} {
		for _, tc := range parityCases() {
			src := tc.src[:min(len(tc.src), 24*tc.dim)]
			for _, eb := range []float32{0.001, 0.1} {
				frame, err := New(eb, mode).Compress(src, tc.dim)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(frame)
				f.Add(frame[:len(frame)-1])
			}
		}
	}
	f.Add([]byte{0x0a, 0xd7, 0x23, 0x3c, 0, 0, 0, 0x80, 0, 0, 0, 0, subVLZ,
		0x80, 0x80, 0x80, 0x80, 0x10, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		n := 0 // still decode on a bad header: no frame fits a destination it does not name
		h, err := parseHeader(frame)
		if err == nil && h.n <= fuzzMaxValues {
			n = h.n
		}
		c := New(0.01, Auto) // decoding reads the bound from the frame
		dst := make([]float32, n)
		dim, err := c.DecompressInto(dst, frame)
		if err != nil {
			return
		}
		if dim != h.dim || len(dst) != h.n {
			t.Fatalf("decoded dim %d into %d values, header says dim %d and %d values", dim, len(dst), h.dim, h.n)
		}
		vals, dim2, err := c.Decompress(frame)
		if err != nil || dim2 != dim || len(vals) != len(dst) {
			t.Fatalf("Decompress disagrees with DecompressInto: dim %d, %d values, error %v", dim2, len(vals), err)
		}

		// Re-encode. Codes too large for float32 to carry exactly (or a bound
		// that overflows it) do not come back bit for bit; the frame decoding
		// without a panic is all that is asked of those.
		q := quant.New(h.eb)
		codes := make([]int32, len(dst))
		q.Quantize(codes, dst)
		for i, v := range dst {
			if math.IsInf(float64(v), 0) || codes[i] > 1<<20 || codes[i] < -1<<20 {
				return
			}
		}
		again, err := New(h.eb, Auto).Compress(dst, dim)
		if err != nil {
			t.Fatalf("decoded values do not re-compress: %v", err)
		}
		back := make([]float32, len(dst))
		if _, err := c.DecompressInto(back, again); err != nil {
			t.Fatalf("re-compressed frame does not decode: %v", err)
		}
		backCodes := make([]int32, len(dst))
		q.Quantize(backCodes, back)
		for i := range codes {
			if backCodes[i] != codes[i] || back[i] != dst[i] {
				t.Fatalf("value %d: %v (code %d) re-encodes to %v (code %d)", i, dst[i], codes[i], back[i], backCodes[i])
			}
		}
	})
}
