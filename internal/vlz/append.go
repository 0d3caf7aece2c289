package vlz

import (
	"encoding/binary"
	"fmt"

	"dlrmcomp/internal/quant"
)

// This file is the coder: AppendEncode/DecodeInto reuse every scratch
// structure across calls. Window eviction is a sequence-numbered hash chain
// (O(1) amortized): literal rows carry a monotonically increasing sequence
// number, the ring is addressed modulo the window, and expired chain entries
// are skipped by comparing against the window floor instead of being
// rewritten. Matching picks the newest matching literal first; the token
// stream is pinned against the shift-the-index oracle in oracle_test.go.

// AppendEncode compresses codes (numRows × dim, row-major) and appends the
// self-contained frame to dst, returning the grown buffer. The encoder's
// internal workspace is reused across calls, so AppendEncode is not safe for
// concurrent use on one Encoder.
func (e *Encoder) AppendEncode(dst []byte, codes []int32, dim int) ([]byte, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("vlz: dim must be positive, got %d", dim)
	}
	if len(codes)%dim != 0 {
		return nil, fmt.Errorf("vlz: %d codes not divisible by dim %d", len(codes), dim)
	}
	numRows := len(codes) / dim
	window := e.Window
	if window <= 0 {
		window = DefaultWindow
	}

	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(dim))
	dst = append(dst, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(numRows))
	dst = append(dst, tmp[:n]...)

	// ring[s%window] is the codes-offset of literal sequence s; prev[s%window]
	// chains to the previous literal with the same hash. A chain entry is
	// live iff its sequence is ≥ total-window; anything older is skipped
	// (its ring slot may already hold a newer row).
	if cap(e.ring) < window {
		e.ring = make([]int, window)
		e.prev = make([]int32, window)
	}
	e.ring = e.ring[:window]
	e.prev = e.prev[:window]
	if e.head == nil {
		e.head = make(map[uint64]int32)
	}
	clear(e.head)
	total := int32(0) // literals appended so far = next sequence number

	pendingOffset := -1
	pendingCount := 0
	flushRun := func() {
		if pendingCount == 0 {
			return
		}
		if pendingCount == 1 {
			dst = append(dst, 1)
			n = binary.PutUvarint(tmp[:], uint64(pendingOffset))
			dst = append(dst, tmp[:n]...)
		} else {
			// Run token: 2, offset, count.
			dst = append(dst, 2)
			n = binary.PutUvarint(tmp[:], uint64(pendingOffset))
			dst = append(dst, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], uint64(pendingCount))
			dst = append(dst, tmp[:n]...)
		}
		pendingOffset, pendingCount = -1, 0
	}

	for r := 0; r < numRows; r++ {
		row := codes[r*dim : (r+1)*dim]
		h := hashRow(row)
		matchSeq := int32(-1)
		minSeq := total - int32(window)
		if s, ok := e.head[h]; ok {
			for s >= 0 && s >= minSeq {
				start := e.ring[int(s)%window]
				if rowsEqual(row, codes[start:start+dim]) {
					matchSeq = s
					break
				}
				s = e.prev[int(s)%window]
			}
		}
		if matchSeq >= 0 {
			// Back-offset in literals from newest (1 = newest). The window
			// does not advance on matches, so consecutive matches of the
			// same row share the offset and run-length code.
			offset := int(total - matchSeq)
			if offset == pendingOffset {
				pendingCount++
			} else {
				flushRun()
				pendingOffset, pendingCount = offset, 1
			}
			continue
		}
		flushRun()
		// Literal token: 0, then zigzag varints of each code.
		dst = append(dst, 0)
		for _, c := range row {
			n = binary.PutUvarint(tmp[:], uint64(quant.ZigZag(c)))
			dst = append(dst, tmp[:n]...)
		}
		slot := int(total) % window
		e.ring[slot] = r * dim
		if p, ok := e.head[h]; ok {
			e.prev[slot] = p
		} else {
			e.prev[slot] = -1
		}
		e.head[h] = total
		total++
	}
	flushRun()
	return dst, nil
}

// Decoder reconstructs frames with a reusable workspace. It writes straight
// into the caller's code buffer and keeps its literal-row ring as offsets
// into that buffer, so steady-state decoding performs no heap allocation.
// Not safe for concurrent use.
type Decoder struct {
	ring []int32 // output offsets of literal rows, oldest first
}

// NewDecoder returns a decoder with an empty (lazily grown) workspace.
func NewDecoder() *Decoder { return &Decoder{} }

// DecodeInto reconstructs the code rows of a frame produced by AppendEncode
// into dst, whose length must equal rows×dim of the frame (callers learn the
// count from their own framing, as the hybrid codec header does, or from
// RowCount). Returns the frame's row length dim.
func (d *Decoder) DecodeInto(dst []int32, data []byte) (int, error) {
	d64, n := binary.Uvarint(data)
	if n <= 0 || d64 == 0 {
		return 0, errCorrupt
	}
	data = data[n:]
	rows64, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, errCorrupt
	}
	data = data[n:]
	dim := int(d64)
	numRows := int(rows64)
	if numRows*dim != len(dst) {
		return 0, fmt.Errorf("vlz: frame holds %dx%d codes, destination holds %d", numRows, dim, len(dst))
	}
	d.ring = d.ring[:0]

	o := 0 // write position in dst
	for r := 0; r < numRows; {
		if len(data) == 0 {
			return 0, errCorrupt
		}
		tok := data[0]
		data = data[1:]
		switch tok {
		case 1:
			off64, n := binary.Uvarint(data)
			if n <= 0 {
				return 0, errCorrupt
			}
			data = data[n:]
			off := int(off64)
			if off <= 0 || off > len(d.ring) {
				return 0, errCorrupt
			}
			src := int(d.ring[len(d.ring)-off])
			copy(dst[o:o+dim], dst[src:src+dim])
			o += dim
			r++
		case 2:
			off64, n := binary.Uvarint(data)
			if n <= 0 {
				return 0, errCorrupt
			}
			data = data[n:]
			cnt64, n2 := binary.Uvarint(data)
			if n2 <= 0 || cnt64 == 0 {
				return 0, errCorrupt
			}
			data = data[n2:]
			off := int(off64)
			if off <= 0 || off > len(d.ring) || uint64(numRows-r) < cnt64 {
				return 0, errCorrupt
			}
			src := int(d.ring[len(d.ring)-off])
			for k := uint64(0); k < cnt64; k++ {
				copy(dst[o:o+dim], dst[src:src+dim])
				o += dim
			}
			r += int(cnt64)
		case 0:
			for j := 0; j < dim; j++ {
				u, n := binary.Uvarint(data)
				if n <= 0 {
					return 0, errCorrupt
				}
				data = data[n:]
				dst[o+j] = quant.UnZigZag(uint32(u))
			}
			d.ring = append(d.ring, int32(o))
			o += dim
			r++
		default:
			return 0, errCorrupt
		}
	}
	return dim, nil
}

// RowCount reads a frame's (rows, dim) header without decoding it, so
// callers can size the DecodeInto destination.
func RowCount(data []byte) (rows, dim int, err error) {
	d64, n := binary.Uvarint(data)
	if n <= 0 || d64 == 0 {
		return 0, 0, errCorrupt
	}
	rows64, n2 := binary.Uvarint(data[n:])
	if n2 <= 0 {
		return 0, 0, errCorrupt
	}
	return int(rows64), int(d64), nil
}
