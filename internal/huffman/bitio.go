package huffman

// BitWriter accumulates bits MSB-first into a byte buffer. The zero value is
// an empty writer.
type BitWriter struct {
	buf  []byte
	cur  uint64
	nCur uint // bits currently held in cur
}

// Reset empties the writer, keeping the accumulated buffer's capacity so a
// reused writer reaches a zero-allocation steady state.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nCur = 0, 0
}

// WriteBits appends the low n bits of v (MSB of those n bits first).
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n > 57 {
		w.WriteBits(v>>32, n-32)
		w.WriteBits(v&0xFFFFFFFF, 32)
		return
	}
	w.cur = (w.cur << n) | (v & ((1 << n) - 1))
	w.nCur += n
	for w.nCur >= 8 {
		w.nCur -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nCur))
	}
}

// Bytes flushes any partial byte (zero-padded) and returns the buffer.
func (w *BitWriter) Bytes() []byte {
	if w.nCur > 0 {
		pad := 8 - w.nCur
		w.buf = append(w.buf, byte(w.cur<<pad))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// BitReader consumes bits MSB-first from a byte slice.
type BitReader struct {
	data []byte
	pos  int // byte position
	cur  uint64
	nCur uint
}

// Reset points the reader at data, clearing any buffered bits. A stack- or
// workspace-held BitReader can be Reset per frame instead of reallocated.
func (r *BitReader) Reset(data []byte) {
	r.data, r.pos, r.cur, r.nCur = data, 0, 0, 0
}

// ReadBits reads n bits (n <= 57), returning them right-aligned. Reading
// past the end yields zero bits without complaint, so a caller decoding
// untrusted data checks the stream's length against what it will read
// before it reads (as the raw-mode decoder does).
func (r *BitReader) ReadBits(n uint) uint64 {
	for r.nCur < n {
		var b byte
		if r.pos < len(r.data) {
			b = r.data[r.pos]
			r.pos++
		}
		r.cur = (r.cur << 8) | uint64(b)
		r.nCur += 8
	}
	r.nCur -= n
	v := (r.cur >> r.nCur) & ((1 << n) - 1)
	return v
}
