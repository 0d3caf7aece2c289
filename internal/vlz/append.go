package vlz

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

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
	dst, _, err := e.AppendEncodeWithin(dst, codes, dim, math.MaxInt)
	return dst, err
}

// AppendEncodeWithin is AppendEncode under a byte budget, for a caller that
// already holds a competing frame of that length (the hybrid codec's Auto
// mode): the moment the frame outgrows budget bytes the encoder stops, and
// ok is false with dst returned at its original length. A frame of exactly
// budget bytes is within it.
func (e *Encoder) AppendEncodeWithin(dst []byte, codes []int32, dim, budget int) (out []byte, ok bool, err error) {
	if dim <= 0 {
		return nil, false, fmt.Errorf("vlz: dim must be positive, got %d", dim)
	}
	if len(codes)%dim != 0 {
		return nil, false, fmt.Errorf("vlz: %d codes not divisible by dim %d", len(codes), dim)
	}
	numRows := len(codes) / dim
	window := e.Window
	if window <= 0 {
		window = DefaultWindow
	}

	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(dim))
	dst = binary.AppendUvarint(dst, uint64(numRows))

	// ring[s&mask] is the codes-offset of literal sequence s; prev[s&mask]
	// chains to the previous literal in the same head bucket. The ring is the
	// window rounded up to a power of two, so a slot is a mask away and is
	// not reused while its row is in the window. A chain entry is live iff
	// its sequence is ≥ total-window; anything older is skipped (its slot may
	// already hold a newer row). head is a flat table over the hash's top
	// bits, twice the ring so chains stay short; sharing a bucket only
	// lengthens a chain, rowsEqual decides every match.
	if len(e.ring) < window {
		size := 1 << bits.Len(uint(window-1))
		e.ring = make([]int, size)
		e.prev = make([]int32, size)
		e.head = make([]int32, 2*size)
	}
	ring, prev, head := e.ring, e.prev, e.head
	mask := int32(len(ring) - 1)
	headShift := 64 - bits.Len(uint(len(head)-1))
	for i := range head {
		head[i] = -1
	}
	total := int32(0) // literals appended so far = next sequence number

	pendingOffset := -1
	pendingCount := 0
	flushRun := func() {
		if pendingCount == 0 {
			return
		}
		if pendingCount == 1 {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(pendingOffset))
		} else {
			// Run token: 2, offset, count.
			dst = append(dst, 2)
			dst = binary.AppendUvarint(dst, uint64(pendingOffset))
			dst = binary.AppendUvarint(dst, uint64(pendingCount))
		}
		pendingOffset, pendingCount = -1, 0
	}

	for r := 0; r < numRows; r++ {
		row := codes[r*dim : (r+1)*dim]
		bucket := hashRow(row) >> headShift
		matchSeq := int32(-1)
		minSeq := total - int32(window)
		for s := head[bucket]; s >= 0 && s >= minSeq; s = prev[s&mask] {
			start := ring[s&mask]
			if rowsEqual(row, codes[start:start+dim]) {
				matchSeq = s
				break
			}
		}
		if matchSeq >= 0 {
			// Back-offset in literals from newest (1 = newest). The window
			// does not advance on matches, so consecutive matches of the
			// same row share the offset and run-length code.
			offset := int(total - matchSeq)
			if offset == pendingOffset {
				pendingCount++
				continue
			}
			flushRun()
			pendingOffset, pendingCount = offset, 1
		} else {
			flushRun()
			// Literal token: 0, then zigzag varints of each code.
			dst = append(dst, 0)
			for _, c := range row {
				dst = binary.AppendUvarint(dst, uint64(quant.ZigZag(c)))
			}
			ring[total&mask] = r * dim
			prev[total&mask] = head[bucket]
			head[bucket] = total
			total++
		}
		// Bytes only accumulate (a pending run is yet to add its own), so a
		// frame past the budget here is past it for good.
		if len(dst)-base > budget {
			return dst[:base], false, nil
		}
	}
	flushRun()
	if len(dst)-base > budget {
		return dst[:base], false, nil
	}
	return dst, true, nil
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
	// Both counts are the frame's word: compare them with len(dst) without
	// forming a product that could wrap onto it.
	if have := uint64(len(dst)); have/d64 != rows64 || have%d64 != 0 {
		return 0, fmt.Errorf("vlz: frame holds %dx%d codes, destination holds %d", rows64, d64, len(dst))
	}
	if d64 > math.MaxInt {
		return 0, errCorrupt // an empty frame whose dim no int holds
	}
	dim := int(d64)
	numRows := int(rows64)
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
	if n2 <= 0 || d64 > math.MaxInt || rows64 > math.MaxInt/d64 {
		return 0, 0, errCorrupt // rows×dim would not fit the destination's length
	}
	return int(rows64), int(d64), nil
}
