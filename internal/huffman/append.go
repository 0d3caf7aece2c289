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
	freqD  []uint64 // dense frequency table (small-alphabet fast path), one or four lanes
	codesD []uint64 // dense code table, indexed by symbol: code<<codeLenBits | len
	syms   []uint32 // distinct symbols, ascending
	pairs  []uint64 // (len<<32 | sym) keys in canonical order
	nodes  []node
	order  []int32 // node-index heap, ordered by (freq, sym)
	stack  []treeItem
	w      BitWriter // raw frames and the map path; the dense Huffman emit loop writes dst directly
	plan   plan      // left by Plan for AppendPlanned
	frame  []byte    // map path: the planned frame
	alt    []byte    // map path: the losing candidate's buffer
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
// and therefore the frame bytes. It is the encoder's two halves in sequence.
func (e *Encoder) AppendEncodeMax(dst []byte, syms []uint32, maxSym uint32) []byte {
	e.Plan(syms, maxSym)
	return e.AppendPlanned(dst, syms)
}

// Plan is the size half of the encoder: it counts syms, builds the code, and
// returns the exact byte length of the frame AppendPlanned will then append
// for the same syms — without emitting a bit. A caller choosing between this
// coder and another (the hybrid codec's Auto mode) decides on that number and
// pays for emission only if this coder won. maxSym must equal max(syms), as
// for AppendEncodeMax.
func (e *Encoder) Plan(syms []uint32, maxSym uint32) int {
	switch {
	case len(syms) == 0:
		e.plan = plan{mode: modeConst, size: 2}
	case maxSym < maxDenseSym:
		e.planDense(syms, maxSym)
	default:
		e.planMap(syms)
	}
	return e.plan.size
}

// plan is what the size half leaves for the emit half: which frame mode won
// and how long the frame is. The code itself stays in e.pairs/e.codesD; a
// planMap frame is already complete in e.frame.
type plan struct {
	mode   byte  // modeConst, modeRaw, modeHuffman, or planFrame
	size   int   // exact frame length in bytes
	width  uint  // modeRaw: bits per symbol
	maxLen uint8 // modeHuffman: longest code
}

// planFrame marks a plan whose frame the map path has already materialized.
const planFrame = 0xFF

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

// constPlan plans the frame of a one-symbol input: mode, count, the symbol.
func constPlan(syms []uint32) plan {
	return plan{mode: modeConst, size: 1 + uvarintLen(uint64(len(syms))) + uvarintLen(uint64(syms[0]))}
}

// rawWidth is the fixed bit width the raw mode stores symbols up to maxSym in.
func rawWidth(maxSym uint32) uint { return uint(max(bits.Len32(maxSym), 1)) }

// rawLen is the exact length of the raw frame for n symbols of the given
// width: mode, width, count, padded fixed-width bits.
func rawLen(n int, width uint) int { return 2 + uvarintLen(uint64(n)) + (n*int(width)+7)/8 }

// planDense is the size half for small alphabets: flat slices replace the
// frequency and code maps, distinct symbols fall out of the table scan
// already sorted, and both candidate frame sizes (Huffman vs raw) are
// computed arithmetically, so no frame is materialized to be compared. The
// frame AppendPlanned emits from it is byte-identical to the map path's.
func (e *Encoder) planDense(syms []uint32, maxSym uint32) {
	m := int(maxSym) + 1
	freq := e.count(syms, m)

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
	if len(e.nodes) == 1 {
		e.plan = constPlan(syms)
		return
	}
	width := rawWidth(maxSym)
	raw := plan{mode: modeRaw, size: rawLen(len(syms), width), width: width}
	maxLen := e.mergeAndAssignLengths()
	if maxLen > maxCodeLen {
		e.plan = raw
		return
	}

	// Canonical assignment over (len, sym)-sorted pairs, into the dense code
	// table. Stale entries from previous calls are never read: the emit loop
	// only indexes symbols present in syms, all of which are assigned here.
	// The Huffman frame is header (mode, numDistinct, (symbol, len)*,
	// numSymbols) plus padded code bits; its length, like the raw one, matches
	// the materialized frame exactly, so the comparison picks the winner the
	// map path's materialize-both comparison picks.
	slices.Sort(e.pairs)
	if cap(e.codesD) < m {
		e.codesD = make([]uint64, m)
	}
	codes := e.codesD[:m]
	hufLen := 1 + uvarintLen(uint64(len(e.pairs))) + uvarintLen(uint64(len(syms)))
	var hufBits, code uint64
	var prevLen uint64
	for _, p := range e.pairs {
		l, sym := p>>32, uint32(p)
		code <<= l - prevLen
		codes[sym] = code<<codeLenBits | l
		code++
		prevLen = l
		hufLen += uvarintLen(uint64(sym)) + 1
		hufBits += freq[sym] * l
	}
	hufLen += int((hufBits + 7) / 8)
	if raw.size < hufLen {
		e.plan = raw
		return
	}
	e.plan = plan{mode: modeHuffman, size: hufLen, maxLen: maxLen}
}

// count returns the frequency table of syms, all below m. An embedding batch
// repeats a few symbols, and back-to-back increments of one counter wait on
// each other's store, so when the input is long enough to pay for clearing
// and summing them the counts go to four interleaved tables instead of one.
func (e *Encoder) count(syms []uint32, m int) []uint64 {
	lanes := 1
	if 4*m <= len(syms) {
		lanes = 4
	}
	if cap(e.freqD) < lanes*m {
		e.freqD = make([]uint64, lanes*m)
	}
	freq := e.freqD[:m]
	clear(e.freqD[:lanes*m])
	if lanes == 1 {
		for _, s := range syms {
			freq[s]++
		}
		return freq
	}
	f1, f2, f3 := e.freqD[m:2*m], e.freqD[2*m:3*m], e.freqD[3*m:4*m]
	i := 0
	for ; i+4 <= len(syms); i += 4 {
		freq[syms[i]]++
		f1[syms[i+1]]++
		f2[syms[i+2]]++
		f3[syms[i+3]]++
	}
	for ; i < len(syms); i++ {
		freq[syms[i]]++
	}
	for s := range freq {
		freq[s] += f1[s] + f2[s] + f3[s]
	}
	return freq
}

// codeLenBits is the width of the length field in a packed dense-table entry
// (code<<codeLenBits | len): lengths reach maxCodeLen = 57 < 64, and a code of
// that length still fits above the field.
const codeLenBits = 6

// AppendPlanned is the emit half of the encoder: it appends the frame the
// preceding Plan call sized, for the same syms, and returns the grown buffer.
// Exactly Plan's return value in bytes is appended; dst's spare capacity past
// them is scratch.
func (e *Encoder) AppendPlanned(dst []byte, syms []uint32) []byte {
	switch e.plan.mode {
	case planFrame:
		return append(dst, e.frame...)
	case modeConst:
		dst = append(dst, modeConst)
		dst = binary.AppendUvarint(dst, uint64(len(syms)))
		if len(syms) == 0 {
			return dst
		}
		return binary.AppendUvarint(dst, uint64(syms[0]))
	case modeRaw:
		return e.appendRaw(dst, syms, e.plan.width)
	}

	// Huffman: header, then the code bits. dst is grown once to the planned
	// length plus the emit loop's store slack, and the bits go into it
	// through a 64-bit accumulator: acc's low pend bits are pending output
	// (pend < 8 between stores; anything above them is already stored and
	// falls off the top), and every store writes the pending bits as one
	// big-endian word and advances by the whole bytes among them. The longest
	// legal code (57 bits) still fits beside 7 pending bits, and two codes of
	// up to pairCodeLen do, which halves the stores and shifts per symbol for
	// every code a batch-sized input produces.
	end := len(dst) + e.plan.size
	dst = slices.Grow(dst, e.plan.size+8)
	dst = append(dst, modeHuffman)
	dst = binary.AppendUvarint(dst, uint64(len(e.pairs)))
	for _, p := range e.pairs {
		dst = binary.AppendUvarint(dst, uint64(uint32(p)))
		dst = append(dst, uint8(p>>32))
	}
	dst = binary.AppendUvarint(dst, uint64(len(syms)))

	const lenMask = 1<<codeLenBits - 1
	out := dst[:cap(dst)]
	pos := len(dst)
	codes := e.codesD
	var acc uint64
	var pend uint
	i := 0
	if e.plan.maxLen <= pairCodeLen {
		for ; i+2 <= len(syms); i += 2 {
			c0, c1 := codes[syms[i]], codes[syms[i+1]]
			l0, l1 := uint(c0&lenMask), uint(c1&lenMask)
			acc = (acc<<l0|c0>>codeLenBits)<<l1 | c1>>codeLenBits
			pend += l0 + l1
			binary.BigEndian.PutUint64(out[pos:], acc<<((64-pend)&63))
			pos += int(pend >> 3)
			pend &= 7
		}
	}
	for ; i < len(syms); i++ {
		c := codes[syms[i]]
		l := uint(c & lenMask)
		acc = acc<<l | c>>codeLenBits
		pend += l
		binary.BigEndian.PutUint64(out[pos:], acc<<((64-pend)&63))
		pos += int(pend >> 3)
		pend &= 7
	}
	return out[:end]
}

// pairCodeLen is the longest code two of which fit in the emit accumulator
// beside its 7 pending bits.
const pairCodeLen = 28

// planMap is the size half for alphabets too wide for the dense tables. It
// materializes both candidate frames and leaves the shorter in e.frame.
func (e *Encoder) planMap(syms []uint32) {
	clear(e.freq)
	var maxSym uint32
	for _, s := range syms {
		e.freq[s]++
		maxSym = max(maxSym, s)
	}
	if len(e.freq) == 1 {
		e.plan = constPlan(syms)
		return
	}
	e.frame = e.appendRaw(e.frame[:0], syms, rawWidth(maxSym))
	e.plan = plan{mode: planFrame, size: len(e.frame)}

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
	if e.mergeAndAssignLengths() > maxCodeLen {
		return
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
	huf := append(e.alt[:0], modeHuffman)
	huf = binary.AppendUvarint(huf, uint64(len(e.pairs)))
	for _, p := range e.pairs {
		huf = binary.AppendUvarint(huf, uint64(uint32(p)))
		huf = append(huf, uint8(p>>32))
	}
	huf = binary.AppendUvarint(huf, uint64(len(syms)))
	e.w.Reset()
	for _, s := range syms {
		sc := e.codes[s]
		e.w.WriteBits(sc.code, uint(sc.len))
	}
	huf = append(huf, e.w.Bytes()...)

	// Raw wins only when strictly shorter (tiny inputs with wide alphabets).
	e.alt = huf
	if len(huf) <= len(e.frame) {
		e.frame, e.alt = huf, e.frame
		e.plan.size = len(huf)
	}
}

// appendRaw appends the raw frame: symbols stored with a fixed bit width.
func (e *Encoder) appendRaw(dst []byte, syms []uint32, width uint) []byte {
	dst = append(dst, modeRaw, byte(width))
	dst = binary.AppendUvarint(dst, uint64(len(syms)))
	e.w.Reset()
	for _, s := range syms {
		e.w.WriteBits(uint64(s), width)
	}
	return append(dst, e.w.Bytes()...)
}

// Decoder decompresses frames with reusable internal state. Not safe for
// concurrent use.
type Decoder struct {
	pairs  []uint64 // (len<<32 | sym), canonical order
	sorted []uint32 // symbols in canonical order
	table  []uint64 // sym<<8 | len for each tableBits-bit prefix; 0: the code is longer (or unassigned)
}

// NewDecoder returns a decoder with empty (lazily grown) workspaces.
func NewDecoder() *Decoder { return &Decoder{} }

// maxTableBits caps the prefix width of the decode table: codes up to this
// long — all but the rarest symbols of a batch — decode with one lookup, and
// the table (16 KB at most) is cheap to rebuild per frame.
const maxTableBits = 11

// DecodeInto reconstructs a frame produced by AppendEncode into dst,
// whose length must equal the frame's symbol count (callers learn the count
// from their own framing, as the hybrid codec header does). Returns the
// number of symbols written. A frame whose bitstream ends before dst is full
// is corrupt, like any other damage.
func (d *Decoder) DecodeInto(dst []uint32, data []byte) (int, error) {
	return d.decode(dst, data, false)
}

// DecodePrefixInto is DecodeInto for the first len(dst) symbols of a frame
// holding at least that many: the bitstream is read only as far as those
// symbols reach, so a caller that needs the front of a frame (the hybrid
// codec's row-range decode) does not pay for the rest. Bytes past the
// prefix are not examined — damage there goes unnoticed — but whenever
// DecodeInto accepts a frame, DecodePrefixInto writes exactly the first
// len(dst) symbols DecodeInto would.
func (d *Decoder) DecodePrefixInto(dst []uint32, data []byte) (int, error) {
	return d.decode(dst, data, true)
}

// decode is both decoders' one body: count is the frame's symbol count, and
// it must equal len(dst), or with prefix be at least len(dst).
func (d *Decoder) decode(dst []uint32, data []byte, prefix bool) (int, error) {
	fits := func(count uint64) bool {
		return count == uint64(len(dst)) || prefix && count > uint64(len(dst))
	}
	if len(data) == 0 {
		return 0, errCorrupt
	}
	mode := data[0]
	rest := data[1:]
	switch mode {
	case modeConst:
		count, n := binary.Uvarint(rest)
		if n <= 0 || !fits(count) {
			return 0, errCorrupt
		}
		if len(dst) == 0 {
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
		if n <= 0 || !fits(count) {
			return 0, errCorrupt
		}
		rest = rest[1+n:]
		if len(rest) < (len(dst)*int(width)+7)/8 {
			return 0, errCorrupt
		}
		var r BitReader
		r.Reset(rest)
		for i := range dst {
			dst[i] = uint32(r.ReadBits(width))
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
		if n <= 0 || !fits(count) {
			return 0, errCorrupt
		}
		if err := d.decodeBits(dst, rest[n:]); err != nil {
			return 0, err
		}
		return len(dst), nil
	}
	return 0, errCorrupt
}

// decodeBits decodes len(dst) symbols of the code in d.pairs from the
// bitstream. Codes up to tableBits long take one table lookup on the next
// tableBits bits; longer ones fall back to the canonical first-code walk.
func (d *Decoder) decodeBits(dst []uint32, stream []byte) error {
	// Canonical order (len, sym); a duplicated symbol or a code past the end
	// of its length's code space cannot come from the encoder, so reject it.
	slices.Sort(d.pairs)
	maxLen := uint(d.pairs[len(d.pairs)-1] >> 32)
	tableBits := min(maxLen, maxTableBits)
	if cap(d.table) < 1<<tableBits {
		d.table = make([]uint64, 1<<maxTableBits)
	}
	table := d.table[:1<<tableBits]
	clear(table)
	d.sorted = d.sorted[:0]
	var numAt, firstIdx [maxCodeLen + 1]int
	var firstCode [maxCodeLen + 1]uint64
	var code uint64
	var prevLen uint
	for i, p := range d.pairs {
		l, sym := uint(p>>32), uint32(p)
		if i > 0 && sym == uint32(d.pairs[i-1]) {
			return errCorrupt
		}
		code <<= l - prevLen
		if code>>l != 0 {
			return errCorrupt
		}
		if l != prevLen {
			firstCode[l], firstIdx[l] = code, i
		}
		numAt[l]++
		d.sorted = append(d.sorted, sym)
		if l <= tableBits {
			entry := uint64(sym)<<8 | uint64(l)
			span := table[code<<(tableBits-l) : (code+1)<<(tableBits-l)]
			for k := range span {
				span[k] = entry
			}
		}
		code++
		prevLen = l
	}

	// acc holds the next `have` bits of the stream left-aligned (below them:
	// later stream bits or zeros, never counted); it is topped up to at least
	// 57 bits, or to the end of the stream, whenever fewer than the longest
	// code remain. A symbol that needs more bits than the stream still has
	// means the frame was cut.
	var acc uint64
	var have uint
	pos := 0
	peek := (64 - tableBits) & 63
	for i := range dst {
		if have < maxLen {
			if pos+8 <= len(stream) {
				// Whole word: the bytes that fit are counted in, and the
				// bits of the next one that ride along below `have` are the
				// same bits a later top-up ORs in again.
				acc |= binary.BigEndian.Uint64(stream[pos:]) >> have
				pos += int((63 - have) >> 3)
				have |= 56
			}
			for have <= 56 && pos < len(stream) {
				acc |= uint64(stream[pos]) << (56 - have)
				pos++
				have += 8
			}
		}
		entry := table[acc>>peek]
		l, sym := uint(entry&0xFF), uint32(entry>>8)
		if l == 0 {
			for l = tableBits + 1; ; l++ {
				if l > maxLen {
					return errCorrupt
				}
				if off := acc>>(64-l) - firstCode[l]; off < uint64(numAt[l]) {
					sym = d.sorted[firstIdx[l]+int(off)]
					break
				}
			}
		}
		if l > have {
			return errCorrupt
		}
		dst[i] = sym
		acc <<= l & 63
		have -= l
	}
	return nil
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
