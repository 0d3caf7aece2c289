package huffman

import (
	"hash/crc32"
	"slices"
	"testing"
)

// fuzzMaxSymbols bounds the destination a fuzz input may ask for: the count
// in a frame is the attacker's, the allocation is ours.
const fuzzMaxSymbols = 1 << 16

// FuzzDecodeInto feeds arbitrary bytes to the decoder, seeded with real
// frames of every mode and with cuts of them. The decoder must not panic,
// must either fail or fill exactly the destination, and whatever it accepts
// must survive a re-encode: encoding the decoded symbols and decoding that
// gives the same symbols. The prefix form runs on the same input for a
// prefix length derived from it: it must not panic, must either fail or
// fill exactly its destination, and on a frame the whole decode accepts it
// must write exactly the whole decode's first symbols.
func FuzzDecodeInto(f *testing.F) {
	// Short inputs: the engine minimizes every input that finds new coverage,
	// and on kilobyte frames that takes longer than a smoke run lasts.
	inputs := appendTestInputs()
	inputs["long-codes"] = fibonacciInput(14)
	for _, syms := range inputs {
		frame := NewEncoder().AppendEncode(nil, syms[:min(len(syms), 300)])
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:len(frame)-1])
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		n, k := 0, 0 // still decode: a frame must not fit a destination it does not name
		if count, err := SymbolCount(frame); err == nil && count >= 0 {
			if count <= fuzzMaxSymbols {
				n = count
			}
			// A prefix may be short of a frame too large to decode whole.
			k = int(crc32.ChecksumIEEE(frame) % uint32(min(count, fuzzMaxSymbols)+1))
		}
		pre := make([]uint32, k)
		preN, preErr := NewDecoder().DecodePrefixInto(pre, frame)
		if preErr == nil && preN != k {
			t.Fatalf("prefix decoded %d symbols into a destination of %d", preN, k)
		}

		dst := make([]uint32, n)
		got, err := NewDecoder().DecodeInto(dst, frame)
		if err != nil {
			return
		}
		if got != len(dst) {
			t.Fatalf("decoded %d symbols into a destination of %d", got, len(dst))
		}
		if preErr != nil || !slices.Equal(pre, dst[:k]) {
			t.Fatalf("prefix of %d symbols (error %v) differs from the whole decode's", k, preErr)
		}
		again := make([]uint32, len(dst))
		if _, err := NewDecoder().DecodeInto(again, NewEncoder().AppendEncode(nil, dst)); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !slices.Equal(again, dst) {
			t.Fatal("re-encoded frame decodes to different symbols")
		}
	})
}
