package huffman

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// This file is the coder: an Encoder/Decoder pair that reuses every scratch
// structure (frequency table, tree nodes, canonical tables, bit buffers)
// across calls, so steady-state operation performs no heap allocation. The
// frame bytes are pinned against the allocating oracle in oracle_test.go.

// symCode is one symbol's canonical code assignment.
type symCode struct {
	code uint64
	len  uint8
}

// Encoder compresses symbol slices with reusable internal state. Not safe
// for concurrent use; give each goroutine its own (the hybrid codec pools
// them).
type Encoder struct {
	freq   map[uint32]uint64
	codes  map[uint32]symCode
	freqD  []uint64  // dense frequency table (small-alphabet fast path)
	codesD []symCode // dense code table, indexed by symbol
	syms   []uint32  // distinct symbols, ascending
	pairs  []uint64  // (len<<32 | sym) keys in canonical order
	nodes  []node
	order  []int32 // node-index heap, ordered by (freq, sym)
	stack  []treeItem
	w      BitWriter
	frame  []byte // Huffman-mode candidate frame
	rawBuf []byte // raw-mode candidate frame
}

// maxDenseSym bounds the alphabet for the dense-table encoding path: symbols
// below it use flat slices for frequency counting and code lookup instead of
// maps (zigzagged quantization codes cluster near zero, so in practice the
// hybrid codec always qualifies). Larger alphabets take the map path; both
// produce identical frames.
const maxDenseSym = 1 << 16

type treeItem struct {
	idx   int32
	depth uint8
}

// NewEncoder returns an encoder with empty (lazily grown) workspaces.
func NewEncoder() *Encoder {
	return &Encoder{
		freq:  make(map[uint32]uint64),
		codes: make(map[uint32]symCode),
	}
}

// heapLess orders node indices by (freq, sym). The order is strict and
// total, so the pop sequence — and with it the code lengths and the frame
// bytes — does not depend on the heap implementation (the test oracle runs
// container/heap over the same order).
func (e *Encoder) heapLess(a, b int32) bool {
	na, nb := e.nodes[a], e.nodes[b]
	if na.freq != nb.freq {
		return na.freq < nb.freq
	}
	return na.sym < nb.sym
}

func (e *Encoder) heapPush(x int32) {
	e.order = append(e.order, x)
	i := len(e.order) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.heapLess(e.order[i], e.order[p]) {
			break
		}
		e.order[i], e.order[p] = e.order[p], e.order[i]
		i = p
	}
}

func (e *Encoder) heapPop() int32 {
	v := e.order[0]
	last := len(e.order) - 1
	e.order[0] = e.order[last]
	e.order = e.order[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(e.order) && e.heapLess(e.order[l], e.order[small]) {
			small = l
		}
		if r < len(e.order) && e.heapLess(e.order[r], e.order[small]) {
			small = r
		}
		if small == i {
			break
		}
		e.order[i], e.order[small] = e.order[small], e.order[i]
		i = small
	}
	return v
}

// AppendEncode compresses syms and appends the self-contained frame to dst,
// returning the grown buffer.
func (e *Encoder) AppendEncode(dst []byte, syms []uint32) []byte {
	var maxSym uint32
	for _, s := range syms {
		if s > maxSym {
			maxSym = s
		}
	}
	return e.AppendEncodeMax(dst, syms, maxSym)
}

// AppendEncodeMax is AppendEncode for callers that already know the exact
// maximum symbol value (the hybrid codec learns it for free while
// zigzag-transforming quantization codes). maxSym must equal max(syms) — an
// upper bound is not enough, because it selects the raw-fallback bit width
// and therefore the frame bytes. Small alphabets take a dense-table path;
// the frame is byte-identical to AppendEncode either way.
func (e *Encoder) AppendEncodeMax(dst []byte, syms []uint32, maxSym uint32) []byte {
	if len(syms) == 0 {
		return append(dst, modeConst, 0)
	}
	if maxSym < maxDenseSym {
		return e.appendEncodeDense(dst, syms, maxSym)
	}
	return e.appendEncodeMap(dst, syms)
}

// mergeAndAssignLengths runs the (freq, sym)-heap merge over the already
// pushed leaf nodes and DFS-assigns code lengths, leaving (len<<32|sym) keys
// in e.pairs. Returns the longest code length.
func (e *Encoder) mergeAndAssignLengths() (maxLen uint8) {
	for len(e.order) > 1 {
		a := e.heapPop()
		b := e.heapPop()
		e.nodes = append(e.nodes, node{
			freq: e.nodes[a].freq + e.nodes[b].freq,
			sym:  e.nodes[a].sym,
			left: a, right: b,
		})
		e.heapPush(int32(len(e.nodes) - 1))
	}
	e.pairs = e.pairs[:0]
	e.stack = append(e.stack[:0], treeItem{e.order[0], 0})
	for len(e.stack) > 0 {
		it := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		nd := e.nodes[it.idx]
		if nd.left < 0 {
			d := it.depth
			if d == 0 {
				d = 1 // single-symbol tree still needs 1 bit
			}
			if d > maxLen {
				maxLen = d
			}
			e.pairs = append(e.pairs, uint64(d)<<32|uint64(nd.sym))
			continue
		}
		e.stack = append(e.stack, treeItem{nd.left, it.depth + 1}, treeItem{nd.right, it.depth + 1})
	}
	return maxLen
}

// uvarintLen is the byte length binary.PutUvarint would write for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// appendEncodeDense is the small-alphabet encoding path: flat slices replace
// the frequency and code maps, distinct symbols fall out of the table scan
// already sorted, and both candidate frame sizes (Huffman vs raw) are
// computed arithmetically so only the winning frame is ever materialized.
// The emitted bytes are identical to the map path's.
func (e *Encoder) appendEncodeDense(dst []byte, syms []uint32, maxSym uint32) []byte {
	m := int(maxSym) + 1
	if cap(e.freqD) < m {
		e.freqD = make([]uint64, m)
	}
	freq := e.freqD[:m]
	clear(freq)
	for _, s := range syms {
		freq[s]++
	}

	numDistinct := 0
	for _, f := range freq {
		if f > 0 {
			numDistinct++
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	if numDistinct == 1 {
		dst = append(dst, modeConst)
		n := binary.PutUvarint(tmp[:], uint64(len(syms)))
		dst = append(dst, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(syms[0]))
		return append(dst, tmp[:n]...)
	}

	// Leaves in ascending symbol order — the table scan yields them sorted.
	e.nodes = e.nodes[:0]
	e.order = e.order[:0]
	for s, f := range freq {
		if f == 0 {
			continue
		}
		e.nodes = append(e.nodes, node{freq: f, sym: uint32(s), left: -1, right: -1})
		e.heapPush(int32(len(e.nodes) - 1))
	}
	maxLen := e.mergeAndAssignLengths()
	if maxLen > maxCodeLen {
		return e.appendRaw(dst, syms)
	}

	// Canonical assignment over (len, sym)-sorted pairs, into the dense code
	// table. Stale entries from previous calls are never read: the emit loop
	// only indexes symbols present in syms, all of which are assigned here.
	slices.Sort(e.pairs)
	if cap(e.codesD) < m {
		e.codesD = make([]symCode, m)
	}
	codes := e.codesD[:m]
	var code uint64
	var prevLen uint8
	for _, p := range e.pairs {
		l := uint8(p >> 32)
		code <<= (l - prevLen)
		codes[uint32(p)] = symCode{code: code, len: l}
		code++
		prevLen = l
	}

	// Arithmetic frame sizes. Huffman: header (mode, numDistinct,
	// (symbol, len)*, numSymbols) plus padded code bits. Raw: mode, width,
	// numSymbols, padded fixed-width bits. Both match the materialized
	// frames exactly (BitWriter.Bytes pads to a whole byte), so the
	// comparison picks the winner the map path's materialize-both comparison
	// picks — without paying for the loser's bit emission.
	hufLen := 1 + uvarintLen(uint64(len(e.pairs))) + uvarintLen(uint64(len(syms)))
	var hufBits uint64
	for _, p := range e.pairs {
		hufLen += uvarintLen(uint64(uint32(p))) + 1
		hufBits += freq[uint32(p)] * uint64(p>>32)
	}
	hufLen += int((hufBits + 7) / 8)
	width := uint(bits.Len32(maxSym))
	if width == 0 {
		width = 1
	}
	rawLen := 2 + uvarintLen(uint64(len(syms))) + (len(syms)*int(width)+7)/8
	if rawLen < hufLen {
		return e.appendRaw(dst, syms)
	}

	// Emit the Huffman frame straight into dst.
	dst = append(dst, modeHuffman)
	n := binary.PutUvarint(tmp[:], uint64(len(e.pairs)))
	dst = append(dst, tmp[:n]...)
	for _, p := range e.pairs {
		n = binary.PutUvarint(tmp[:], uint64(uint32(p)))
		dst = append(dst, tmp[:n]...)
		dst = append(dst, uint8(p>>32))
	}
	n = binary.PutUvarint(tmp[:], uint64(len(syms)))
	dst = append(dst, tmp[:n]...)
	e.w.Reset()
	for _, s := range syms {
		sc := codes[s]
		e.w.WriteBits(sc.code, uint(sc.len))
	}
	return append(dst, e.w.Bytes()...)
}

// appendEncodeMap is the map-based encoding path, for alphabets too wide for
// the dense tables.
func (e *Encoder) appendEncodeMap(dst []byte, syms []uint32) []byte {
	clear(e.freq)
	for _, s := range syms {
		e.freq[s]++
	}
	var tmp [binary.MaxVarintLen64]byte
	if len(e.freq) == 1 {
		dst = append(dst, modeConst)
		n := binary.PutUvarint(tmp[:], uint64(len(syms)))
		dst = append(dst, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(syms[0]))
		return append(dst, tmp[:n]...)
	}

	// Code lengths: leaves in ascending symbol order, then (freq, sym)-heap
	// merging.
	e.syms = e.syms[:0]
	for s := range e.freq {
		e.syms = append(e.syms, s)
	}
	slices.Sort(e.syms)
	e.nodes = e.nodes[:0]
	e.order = e.order[:0]
	for _, s := range e.syms {
		e.nodes = append(e.nodes, node{freq: e.freq[s], sym: s, left: -1, right: -1})
		e.heapPush(int32(len(e.nodes) - 1))
	}
	maxLen := e.mergeAndAssignLengths()
	if maxLen > maxCodeLen {
		return e.appendRaw(dst, syms)
	}

	// Canonical assignment over (len, sym)-sorted pairs.
	slices.Sort(e.pairs)
	clear(e.codes)
	var code uint64
	var prevLen uint8
	for _, p := range e.pairs {
		l := uint8(p >> 32)
		code <<= (l - prevLen)
		e.codes[uint32(p)] = symCode{code: code, len: l}
		code++
		prevLen = l
	}

	// Header: mode, numDistinct, (symbol, len)*, numSymbols.
	e.frame = append(e.frame[:0], modeHuffman)
	n := binary.PutUvarint(tmp[:], uint64(len(e.pairs)))
	e.frame = append(e.frame, tmp[:n]...)
	for _, p := range e.pairs {
		n = binary.PutUvarint(tmp[:], uint64(uint32(p)))
		e.frame = append(e.frame, tmp[:n]...)
		e.frame = append(e.frame, uint8(p>>32))
	}
	n = binary.PutUvarint(tmp[:], uint64(len(syms)))
	e.frame = append(e.frame, tmp[:n]...)

	e.w.Reset()
	for _, s := range syms {
		sc := e.codes[s]
		e.w.WriteBits(sc.code, uint(sc.len))
	}
	e.frame = append(e.frame, e.w.Bytes()...)

	// If Huffman inflates (tiny inputs with wide alphabets), fall back.
	e.rawBuf = e.encodeRawInto(e.rawBuf[:0], syms)
	if len(e.rawBuf) < len(e.frame) {
		return append(dst, e.rawBuf...)
	}
	return append(dst, e.frame...)
}

// appendRaw emits the raw frame straight to dst (over-long-code path).
func (e *Encoder) appendRaw(dst []byte, syms []uint32) []byte {
	e.rawBuf = e.encodeRawInto(e.rawBuf[:0], syms)
	return append(dst, e.rawBuf...)
}

// encodeRawInto stores symbols with a fixed bit width, into a reusable
// buffer.
func (e *Encoder) encodeRawInto(buf []byte, syms []uint32) []byte {
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
	buf = append(buf, modeRaw, byte(width))
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(syms)))
	buf = append(buf, tmp[:n]...)
	e.w.Reset()
	for _, s := range syms {
		e.w.WriteBits(uint64(s), width)
	}
	return append(buf, e.w.Bytes()...)
}

// Decoder decompresses frames with reusable internal state. Not safe for
// concurrent use.
type Decoder struct {
	pairs  []uint64 // (len<<32 | sym), canonical order
	sorted []uint32 // symbols in canonical order
	r      BitReader
}

// NewDecoder returns a decoder with empty (lazily grown) workspaces.
func NewDecoder() *Decoder { return &Decoder{} }

// DecodeInto reconstructs a frame produced by AppendEncode into dst,
// whose length must equal the frame's symbol count (callers learn the count
// from their own framing, as the hybrid codec header does). Returns the
// number of symbols written.
func (d *Decoder) DecodeInto(dst []uint32, data []byte) (int, error) {
	if len(data) == 0 {
		return 0, errCorrupt
	}
	mode := data[0]
	rest := data[1:]
	switch mode {
	case modeConst:
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, errCorrupt
		}
		if int(count) != len(dst) {
			return 0, errCorrupt
		}
		if count == 0 {
			return 0, nil
		}
		sym, n2 := binary.Uvarint(rest[n:])
		if n2 <= 0 {
			return 0, errCorrupt
		}
		for i := range dst {
			dst[i] = uint32(sym)
		}
		return len(dst), nil

	case modeRaw:
		if len(rest) < 1 {
			return 0, errCorrupt
		}
		width := uint(rest[0])
		if width == 0 || width > 32 {
			return 0, errCorrupt
		}
		count, n := binary.Uvarint(rest[1:])
		if n <= 0 || int(count) != len(dst) {
			return 0, errCorrupt
		}
		d.r.Reset(rest[1+n:])
		for i := range dst {
			dst[i] = uint32(d.r.ReadBits(width))
		}
		return len(dst), nil

	case modeHuffman:
		numDistinct, n := binary.Uvarint(rest)
		if n <= 0 || numDistinct == 0 || numDistinct > uint64(len(rest)) {
			return 0, errCorrupt
		}
		rest = rest[n:]
		d.pairs = d.pairs[:0]
		for i := uint64(0); i < numDistinct; i++ {
			sym, n2 := binary.Uvarint(rest)
			if n2 <= 0 || len(rest) < n2+1 || sym > 0xFFFFFFFF {
				return 0, errCorrupt
			}
			l := rest[n2]
			if l == 0 || l > maxCodeLen {
				return 0, errCorrupt
			}
			d.pairs = append(d.pairs, uint64(l)<<32|sym)
			rest = rest[n2+1:]
		}
		count, n := binary.Uvarint(rest)
		if n <= 0 || int(count) != len(dst) {
			return 0, errCorrupt
		}
		rest = rest[n:]

		// Canonical order (len, sym); a duplicated symbol cannot come from
		// the encoder, so reject it.
		slices.Sort(d.pairs)
		for i := 1; i < len(d.pairs); i++ {
			if uint32(d.pairs[i]) == uint32(d.pairs[i-1]) {
				return 0, errCorrupt
			}
		}
		var maxLen uint8
		d.sorted = d.sorted[:0]
		var numAt [maxCodeLen + 2]int
		for _, p := range d.pairs {
			l := uint8(p >> 32)
			if l > maxLen {
				maxLen = l
			}
			numAt[l]++
			d.sorted = append(d.sorted, uint32(p))
		}
		var firstCode [maxCodeLen + 2]uint64
		var firstIdx [maxCodeLen + 2]int
		var code uint64
		idx := 0
		for l := uint8(1); l <= maxLen; l++ {
			firstCode[l] = code
			firstIdx[l] = idx
			code = (code + uint64(numAt[l])) << 1
			idx += numAt[l]
		}

		d.r.Reset(rest)
		for i := range dst {
			var c uint64
			var l uint8
			for {
				c = (c << 1) | d.r.ReadBits(1)
				l++
				if l > maxLen {
					return 0, errCorrupt
				}
				if numAt[l] > 0 && c-firstCode[l] < uint64(numAt[l]) {
					dst[i] = d.sorted[firstIdx[l]+int(c-firstCode[l])]
					break
				}
			}
		}
		return len(dst), nil
	}
	return 0, errCorrupt
}

// SymbolCount reads the number of symbols a frame decodes to, without
// decoding it (so callers can size the DecodeInto destination).
func SymbolCount(data []byte) (int, error) {
	if len(data) == 0 {
		return 0, errCorrupt
	}
	rest := data[1:]
	switch data[0] {
	case modeConst:
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, errCorrupt
		}
		return int(count), nil
	case modeRaw:
		if len(rest) < 1 {
			return 0, errCorrupt
		}
		count, n := binary.Uvarint(rest[1:])
		if n <= 0 {
			return 0, errCorrupt
		}
		return int(count), nil
	case modeHuffman:
		numDistinct, n := binary.Uvarint(rest)
		if n <= 0 || numDistinct == 0 {
			return 0, errCorrupt
		}
		rest = rest[n:]
		for i := uint64(0); i < numDistinct; i++ {
			_, n2 := binary.Uvarint(rest)
			if n2 <= 0 || len(rest) < n2+1 {
				return 0, errCorrupt
			}
			rest = rest[n2+1:]
		}
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, errCorrupt
		}
		return int(count), nil
	}
	return 0, errCorrupt
}
