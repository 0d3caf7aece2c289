package fzgpulike

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dlrmcomp/internal/quant"
)

var errCorrupt = errors.New("fzgpulike: corrupt frame")

// Codec is the FZ-GPU-like compressor.
type Codec struct {
	EB float32
}

// New returns the codec with the given error bound.
func New(eb float32) *Codec { return &Codec{EB: eb} }

// Name implements codec.Codec.
func (c *Codec) Name() string { return "fz-gpu-like" }

// Lossy implements codec.Codec.
func (c *Codec) Lossy() bool { return true }

// SetErrorBound implements codec.ErrorBounded.
func (c *Codec) SetErrorBound(eb float32) { c.EB = eb }

// ErrorBound implements codec.ErrorBounded.
func (c *Codec) ErrorBound() float32 { return c.EB }

// Bitshuffle transposes blocks of 32 uint32 values into 32 bit-plane words:
// output word b holds bit b of each of the 32 input values. Small symbols
// leave the high bit-planes all-zero, which the run-length stage removes.
// The tail block (< 32 values) is zero-padded.
func Bitshuffle(vals []uint32) []uint32 {
	nBlocks := (len(vals) + 31) / 32
	out := make([]uint32, nBlocks*32)
	for blk := 0; blk < nBlocks; blk++ {
		var in [32]uint32
		copy(in[:], vals[blk*32:min(len(vals), blk*32+32)])
		base := blk * 32
		for b := 0; b < 32; b++ {
			var w uint32
			for k := 0; k < 32; k++ {
				w |= ((in[k] >> b) & 1) << k
			}
			out[base+b] = w
		}
	}
	return out
}

// Unbitshuffle inverts Bitshuffle; n is the original value count.
func Unbitshuffle(planes []uint32, n int) []uint32 {
	out := make([]uint32, n)
	nBlocks := (n + 31) / 32
	for blk := 0; blk < nBlocks; blk++ {
		base := blk * 32
		for b := 0; b < 32; b++ {
			w := planes[base+b]
			for k := 0; k < 32; k++ {
				idx := blk*32 + k
				if idx < n {
					out[idx] |= ((w >> k) & 1) << b
				}
			}
		}
	}
	return out
}

// zeroRLE appends src to out as alternating tokens:
// 0x00 run -> (0, uvarint runLen); literal run -> (1, uvarint len, bytes).
func zeroRLE(out, src []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	i := 0
	for i < len(src) {
		if src[i] == 0 {
			j := i
			for j < len(src) && src[j] == 0 {
				j++
			}
			out = append(out, 0)
			n := binary.PutUvarint(tmp[:], uint64(j-i))
			out = append(out, tmp[:n]...)
			i = j
			continue
		}
		j := i
		// Break literal runs at a zero run of length >= 2 (a single zero
		// is cheaper inline than a token pair).
		for j < len(src) {
			if src[j] == 0 && (j+1 >= len(src) || src[j+1] == 0) {
				break
			}
			j++
		}
		out = append(out, 1)
		n := binary.PutUvarint(tmp[:], uint64(j-i))
		out = append(out, tmp[:n]...)
		out = append(out, src[i:j]...)
		i = j
	}
	return out
}

// unZeroRLE inverts zeroRLE into dst (zeroed by the caller), which the
// stream must fill exactly; a run longer than the room left is rejected
// before it is applied.
func unZeroRLE(dst, data []byte) error {
	pos := 0
	for len(data) > 0 {
		tok := data[0]
		data = data[1:]
		l, n := binary.Uvarint(data)
		if tok > 1 || n <= 0 || uint64(len(dst)-pos) < l {
			return errCorrupt
		}
		data = data[n:]
		if tok == 1 {
			if uint64(len(data)) < l {
				return errCorrupt
			}
			copy(dst[pos:], data[:l])
			data = data[l:]
		}
		pos += int(l)
	}
	if pos != len(dst) {
		return errCorrupt
	}
	return nil
}

// headerLen is the frame prefix: error bound (float32 bits), row length dim,
// value count n, little-endian uint32 each.
const headerLen = 12

// CompressAppend implements codec.Codec.
func (c *Codec) CompressAppend(dst []byte, src []float32, dim int) ([]byte, error) {
	if dim <= 0 || len(src)%dim != 0 {
		return nil, fmt.Errorf("fzgpulike: bad shape len=%d dim=%d", len(src), dim)
	}
	q := quant.New(c.EB)
	codes := make([]int32, len(src))
	q.Quantize(codes, src)
	planes := Bitshuffle(quant.ZigZagSlice(codes))
	raw := make([]byte, len(planes)*4)
	for i, w := range planes {
		binary.LittleEndian.PutUint32(raw[4*i:], w)
	}
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(c.EB))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
	return zeroRLE(dst, raw), nil
}

// DecompressInto implements codec.Codec.
func (c *Codec) DecompressInto(dst []float32, frame []byte) (int, error) {
	if len(frame) < headerLen {
		return 0, errCorrupt
	}
	eb := math.Float32frombits(binary.LittleEndian.Uint32(frame[0:]))
	dim := int(binary.LittleEndian.Uint32(frame[4:]))
	n := int(binary.LittleEndian.Uint32(frame[8:]))
	if eb <= 0 || dim <= 0 || n != len(dst) || n%dim != 0 {
		return 0, errCorrupt
	}
	// The payload is the bit planes of whole 32-value blocks.
	raw := make([]byte, (n+31)/32*32*4)
	if err := unZeroRLE(raw, frame[headerLen:]); err != nil {
		return 0, err
	}
	planes := make([]uint32, len(raw)/4)
	for i := range planes {
		planes[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	codes := quant.UnZigZagSlice(Unbitshuffle(planes, n))
	quant.New(eb).Dequantize(dst, codes)
	return dim, nil
}
