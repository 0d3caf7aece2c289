package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Every all-to-all payload in the trainer is a sequence of frames, one per
// embedding table, fused into a single buffer per rank pair (the paper's
// buffer-fusion optimization, §III-E: one collective per step instead of one
// per table). A frame is
//
//	table  uint32  | enc byte | payloadLen uint32 | payload
//
// where enc selects raw little-endian float32 rows or a self-contained codec
// frame produced by the table's codec.
const (
	encRaw   byte = 0 // little-endian float32 rows
	encCodec byte = 1 // codec.Codec frame

	frameHeaderBytes = 9
)

// appendFrameHeader reserves a frame header at the end of dst, returning the
// grown buffer and the header's offset. The payload length is unknown until
// the payload is appended; patchFrameLen fills it in. This is how the
// workspace path frames codec output without a detour through a temporary
// payload slice.
func appendFrameHeader(dst []byte, table int, enc byte) ([]byte, int) {
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(table))
	hdr[4] = enc
	return append(dst, hdr[:]...), len(dst)
}

// patchFrameLen records the length of the payload appended after the header
// at off.
func patchFrameLen(dst []byte, off int) {
	binary.LittleEndian.PutUint32(dst[off+5:off+9], uint32(len(dst)-off-frameHeaderBytes))
}

// appendFrameFloats appends a raw-encoded frame holding vals, serializing
// the floats straight into dst after one grow for header and payload.
func appendFrameFloats(dst []byte, table int, vals []float32) []byte {
	dst, off := appendFrameHeader(slices.Grow(dst, frameHeaderBytes+4*len(vals)), table, encRaw)
	dst = appendFloats(dst, vals)
	patchFrameLen(dst, off)
	return dst
}

// appendFloats appends vals as little-endian float32: one grow, then stores
// over every new byte, so nothing is cleared first. The floats go through a
// four-byte cursor, which runs 1.3-1.4x faster than indexing dst[o+4*i:] on
// 16 KB tables.
func appendFloats(dst []byte, vals []float32) []byte {
	o := len(dst)
	dst = slices.Grow(dst, 4*len(vals))[:o+4*len(vals)]
	w := dst[o:]
	for _, v := range vals {
		binary.LittleEndian.PutUint32(w, math.Float32bits(v))
		w = w[4:]
	}
	return dst
}

// parseFrames walks the fused buffer, invoking fn once per frame.
func parseFrames(buf []byte, fn func(table int, enc byte, payload []byte) error) error {
	for len(buf) > 0 {
		if len(buf) < frameHeaderBytes {
			return fmt.Errorf("dist: truncated frame header (%d trailing bytes)", len(buf))
		}
		table := int(binary.LittleEndian.Uint32(buf[0:4]))
		enc := buf[4]
		n := int(binary.LittleEndian.Uint32(buf[5:9]))
		buf = buf[frameHeaderBytes:]
		if len(buf) < n {
			return fmt.Errorf("dist: frame for table %d wants %d payload bytes, have %d", table, n, len(buf))
		}
		if err := fn(table, enc, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
	}
	return nil
}

// bytesToFloats deserializes b into dst, which must match exactly. It reads
// through a four-byte cursor, as appendFloats writes.
func bytesToFloats(dst []float32, b []byte) error {
	if len(b) != 4*len(dst) {
		return fmt.Errorf("dist: raw payload is %d bytes, want %d", len(b), 4*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
	return nil
}
