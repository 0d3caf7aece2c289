package huffman

import (
	"container/heap"
	"encoding/binary"
	"math/bits"
	"sort"
)

// Encode is the original allocating encoder (symbol maps, container/heap,
// both candidate frames materialized). Nothing ships it any more; it stays
// here as the independent oracle the parity tests hold Encoder.AppendEncode
// to, byte for byte. (The decoder needs no oracle: its reference is the
// encoder's input.)

type nodeHeap struct {
	nodes []node
	order []int32
}

func (h *nodeHeap) Len() int { return len(h.order) }
func (h *nodeHeap) Less(i, j int) bool {
	a, b := h.nodes[h.order[i]], h.nodes[h.order[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.sym < b.sym // deterministic tie-break
}
func (h *nodeHeap) Swap(i, j int)      { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *nodeHeap) Push(x interface{}) { h.order = append(h.order, x.(int32)) }
func (h *nodeHeap) Pop() interface{} {
	n := len(h.order)
	v := h.order[n-1]
	h.order = h.order[:n-1]
	return v
}

// codeLengths computes Huffman code lengths for each distinct symbol.
func codeLengths(freq map[uint32]uint64) map[uint32]uint8 {
	h := &nodeHeap{}
	syms := make([]uint32, 0, len(freq))
	for s := range freq {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	for _, s := range syms {
		h.nodes = append(h.nodes, node{freq: freq[s], sym: s, left: -1, right: -1})
		h.order = append(h.order, int32(len(h.nodes)-1))
	}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(int32)
		b := heap.Pop(h).(int32)
		h.nodes = append(h.nodes, node{
			freq: h.nodes[a].freq + h.nodes[b].freq,
			sym:  h.nodes[a].sym, // carry min symbol for deterministic ties
			left: a, right: b,
		})
		heap.Push(h, int32(len(h.nodes)-1))
	}
	lens := make(map[uint32]uint8, len(freq))
	if len(h.order) == 0 {
		return lens
	}
	// Iterative depth-first traversal assigning depths.
	type item struct {
		idx   int32
		depth uint8
	}
	stack := []item{{h.order[0], 0}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := h.nodes[it.idx]
		if n.left < 0 {
			d := it.depth
			if d == 0 {
				d = 1 // single-symbol tree still needs 1 bit
			}
			lens[n.sym] = d
			continue
		}
		stack = append(stack, item{n.left, it.depth + 1}, item{n.right, it.depth + 1})
	}
	return lens
}

// canonicalCodes assigns canonical codes given lengths. Symbols are sorted
// by (length, symbol).
func canonicalCodes(lens map[uint32]uint8) (codes map[uint32]uint64, sorted []uint32) {
	sorted = make([]uint32, 0, len(lens))
	for s := range lens {
		sorted = append(sorted, s)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if lens[sorted[i]] != lens[sorted[j]] {
			return lens[sorted[i]] < lens[sorted[j]]
		}
		return sorted[i] < sorted[j]
	})
	codes = make(map[uint32]uint64, len(lens))
	var code uint64
	var prevLen uint8
	for _, s := range sorted {
		l := lens[s]
		code <<= (l - prevLen)
		codes[s] = code
		code++
		prevLen = l
	}
	return codes, sorted
}

// Encode compresses the symbol slice into a self-contained frame.
func Encode(syms []uint32) []byte {
	if len(syms) == 0 {
		return []byte{modeConst, 0}
	}
	freq := make(map[uint32]uint64)
	for _, s := range syms {
		freq[s]++
	}
	if len(freq) == 1 {
		out := []byte{modeConst}
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], uint64(len(syms)))
		out = append(out, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(syms[0]))
		out = append(out, tmp[:n]...)
		return out
	}

	lens := codeLengths(freq)
	var maxLen uint8
	for _, l := range lens {
		if l > maxLen {
			maxLen = l
		}
	}
	if maxLen > maxCodeLen {
		return encodeRaw(syms)
	}
	codes, sorted := canonicalCodes(lens)

	// Header: mode, numDistinct, (symbol, len)*, numSymbols.
	var out []byte
	out = append(out, modeHuffman)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(sorted)))
	out = append(out, tmp[:n]...)
	for _, s := range sorted {
		n = binary.PutUvarint(tmp[:], uint64(s))
		out = append(out, tmp[:n]...)
		out = append(out, lens[s])
	}
	n = binary.PutUvarint(tmp[:], uint64(len(syms)))
	out = append(out, tmp[:n]...)

	w := &BitWriter{}
	for _, s := range syms {
		w.WriteBits(codes[s], uint(lens[s]))
	}
	payload := w.Bytes()
	out = append(out, payload...)

	// If Huffman inflates (tiny inputs with wide alphabets), fall back.
	if raw := encodeRaw(syms); len(raw) < len(out) {
		return raw
	}
	return out
}

// encodeRaw stores symbols with a fixed bit width.
func encodeRaw(syms []uint32) []byte {
	var maxSym uint32
	for _, s := range syms {
		if s > maxSym {
			maxSym = s
		}
	}
	width := uint(bits.Len32(maxSym))
	if width == 0 {
		width = 1
	}
	out := []byte{modeRaw, byte(width)}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(syms)))
	out = append(out, tmp[:n]...)
	w := &BitWriter{}
	for _, s := range syms {
		w.WriteBits(uint64(s), width)
	}
	return append(out, w.Bytes()...)
}
