package vlz

import (
	"hash/crc32"
	"slices"
	"testing"
)

// fuzzMaxCodes bounds the destination a fuzz input may ask for: the counts
// in a frame are the attacker's, the allocation is ours.
const fuzzMaxCodes = 1 << 16

// FuzzDecodeInto feeds arbitrary bytes to the decoder, seeded with real
// frames of every batch shape, cuts of them, and the frame whose rows×dim
// wraps to zero. The decoder must not panic, must either fail or fill exactly
// the destination, and whatever it accepts must survive a re-encode: encoding
// the decoded rows and decoding that gives the same rows. The prefix form
// runs on the same input for a prefix length derived from it: it must not
// panic, and on a frame the whole decode accepts it must write exactly the
// whole decode's first rows.
func FuzzDecodeInto(f *testing.F) {
	// Short inputs: the engine minimizes every input that finds new coverage,
	// and on kilobyte frames that takes longer than a smoke run lasts.
	for _, tc := range appendTestBatches() {
		frame, err := New(16).AppendEncode(nil, tc.rows[:min(len(tc.rows), 40*tc.dim)], tc.dim)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x10, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		n, k := 0, 0 // still decode on a bad header: no frame fits a destination it does not name
		rows, dim, err := RowCount(frame)
		if err == nil {
			if rows <= fuzzMaxCodes/dim {
				n = rows * dim
			}
			// A prefix may be short of a frame too large to decode whole.
			k = int(crc32.ChecksumIEEE(frame)%uint32(min(rows, fuzzMaxCodes/dim)+1)) * dim
		}
		pre := make([]int32, k)
		preDim, preErr := NewDecoder().DecodePrefixInto(pre, frame)
		if err == nil && preErr == nil && preDim != dim {
			t.Fatalf("prefix decoded dim %d, header says %d", preDim, dim)
		}

		dst := make([]int32, n)
		dim, err = NewDecoder().DecodeInto(dst, frame)
		if err != nil {
			return
		}
		if dim <= 0 || len(dst)%dim != 0 {
			t.Fatalf("decoded dim %d into a destination of %d codes", dim, len(dst))
		}
		if preErr != nil || !slices.Equal(pre, dst[:k]) {
			t.Fatalf("prefix of %d codes (error %v) differs from the whole decode's", k, preErr)
		}
		again, err := New(0).AppendEncode(nil, dst, dim)
		if err != nil {
			t.Fatalf("decoded rows do not re-encode: %v", err)
		}
		back := make([]int32, len(dst))
		if gotDim, err := NewDecoder().DecodeInto(back, again); err != nil || gotDim != dim {
			t.Fatalf("re-encoded frame decodes to dim %d, error %v; want dim %d", gotDim, err, dim)
		}
		if !slices.Equal(back, dst) {
			t.Fatal("re-encoded frame decodes to different codes")
		}
	})
}
