package vlz

import (
	"encoding/binary"
	"fmt"

	"dlrmcomp/internal/quant"
)

// Encode is the original allocating encoder: a hash → ring-position index
// that is shifted wholesale on every eviction. Nothing ships it any more; it
// stays here as the independent oracle the parity tests hold
// Encoder.AppendEncode to, byte for byte. (The decoder needs no oracle: its
// reference is the encoder's input.)

// Encode compresses codes (numRows × dim, row-major) into a self-contained
// frame.
func (e *Encoder) Encode(codes []int32, dim int) ([]byte, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("vlz: dim must be positive, got %d", dim)
	}
	if len(codes)%dim != 0 {
		return nil, fmt.Errorf("vlz: %d codes not divisible by dim %d", len(codes), dim)
	}
	numRows := len(codes) / dim

	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(dim))
	out = append(out, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(numRows))
	out = append(out, tmp[:n]...)

	// ring holds the last Window *literal* rows (start offsets into codes);
	// index maps row hash -> positions in ring.
	ring := make([]int, 0, e.Window)
	index := make(map[uint64][]int)
	evict := func() {
		if len(ring) < e.Window {
			return
		}
		// Drop the oldest literal row from ring and index.
		oldStart := ring[0]
		oldHash := hashRow(codes[oldStart : oldStart+dim])
		lst := index[oldHash]
		for i, p := range lst {
			if p == 0 {
				lst = append(lst[:i], lst[i+1:]...)
				break
			}
		}
		// All remaining ring positions shift down by one.
		for h, l := range index {
			for i := range l {
				l[i]--
			}
			index[h] = l
		}
		if len(lst) == 0 {
			delete(index, oldHash)
		} else {
			index[oldHash] = lst
		}
		ring = ring[1:]
	}

	// Pending run of match tokens at the same offset.
	pendingOffset := -1
	pendingCount := 0
	flushRun := func() {
		if pendingCount == 0 {
			return
		}
		if pendingCount == 1 {
			out = append(out, 1)
			n = binary.PutUvarint(tmp[:], uint64(pendingOffset))
			out = append(out, tmp[:n]...)
		} else {
			// Run token: 2, offset, count.
			out = append(out, 2)
			n = binary.PutUvarint(tmp[:], uint64(pendingOffset))
			out = append(out, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], uint64(pendingCount))
			out = append(out, tmp[:n]...)
		}
		pendingOffset, pendingCount = -1, 0
	}

	for r := 0; r < numRows; r++ {
		row := codes[r*dim : (r+1)*dim]
		h := hashRow(row)
		matchPos := -1
		for i := len(index[h]) - 1; i >= 0; i-- {
			p := index[h][i]
			cand := codes[ring[p] : ring[p]+dim]
			if rowsEqual(row, cand) {
				matchPos = p
				break
			}
		}
		if matchPos >= 0 {
			// Back-offset in ring slots from newest (1 = newest literal).
			// The window does not advance on matches, so consecutive
			// matches of the same row share the offset and run-length code.
			offset := len(ring) - matchPos
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
		out = append(out, 0)
		for _, c := range row {
			n = binary.PutUvarint(tmp[:], uint64(quant.ZigZag(c)))
			out = append(out, tmp[:n]...)
		}
		evict()
		ring = append(ring, r*dim)
		index[h] = append(index[h], len(ring)-1)
	}
	flushRun()
	return out, nil
}
