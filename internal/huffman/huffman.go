package huffman

import "errors"

// Frame modes.
const (
	modeHuffman = 0 // canonical table + bitstream
	modeRaw     = 1 // fixed-width symbols (fallback when Huffman inflates)
	modeConst   = 2 // single distinct symbol, run-length only
)

// maxCodeLen bounds canonical code lengths; inputs that would exceed it use
// the raw fallback (practically unreachable for batch-sized inputs).
const maxCodeLen = 57

var errCorrupt = errors.New("huffman: corrupt frame")

// node is one Huffman-tree node in the encoder's reusable node slice.
type node struct {
	freq        uint64
	sym         uint32
	left, right int32 // indices into node slice, -1 for leaf
}
