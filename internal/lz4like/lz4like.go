package lz4like

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

var errCorrupt = errors.New("lz4like: corrupt frame")

// Window is the classic byte-level LZ sliding window (contrast with the
// vector-based encoder's row-granular window).
const Window = 4096

const (
	minMatch   = 4
	hashBits   = 14
	maxChainLn = 16 // hash-chain probes per position
)

// LZSSCodec is the nvCOMP-LZ4-family baseline (lossless).
type LZSSCodec struct{}

// Name implements codec.Codec.
func (LZSSCodec) Name() string { return "lz4-like" }

// Lossy implements codec.Codec.
func (LZSSCodec) Lossy() bool { return false }

func toBytes(src []float32) []byte {
	out := make([]byte, len(src)*4)
	for i, v := range src {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// headerLen is the frame prefix both codecs share: row length dim and value
// count n, little-endian uint32 each.
const headerLen = 8

func appendHeader(dst []byte, dim, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// parseHeader returns the frame's dim and payload once its count matches the
// destination: the byte scratch a decoder fills is 4*n and nothing larger.
func parseHeader(frame []byte, n int) (dim int, payload []byte, err error) {
	if len(frame) < headerLen {
		return 0, nil, errCorrupt
	}
	dim = int(binary.LittleEndian.Uint32(frame[0:]))
	if dim <= 0 || int(binary.LittleEndian.Uint32(frame[4:])) != n {
		return 0, nil, errCorrupt
	}
	return dim, frame[headerLen:], nil
}

func fromBytes(dst []float32, raw []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
}

func hash4(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> (32 - hashBits)
}

// CompressBytes runs LZSS over an arbitrary byte slice and appends the token
// stream to out: control byte 0 = literal run (uvarint length + bytes),
// 1 = match (uvarint distance, uvarint length).
func CompressBytes(out, src []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte

	head := make([]int32, 1<<hashBits)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, len(src))

	emitLiterals := func(lo, hi int) {
		if hi <= lo {
			return
		}
		out = append(out, 0)
		n := binary.PutUvarint(tmp[:], uint64(hi-lo))
		out = append(out, tmp[:n]...)
		out = append(out, src[lo:hi]...)
	}

	litStart := 0
	i := 0
	for i+minMatch <= len(src) {
		h := hash4(src[i:])
		bestLen, bestDist := 0, 0
		cand := head[h]
		for probes := 0; probes < maxChainLn && cand >= 0 && int(cand) >= i-Window; probes++ {
			c := int(cand)
			l := 0
			maxL := len(src) - i
			for l < maxL && src[c+l] == src[i+l] {
				l++
			}
			if l > bestLen {
				bestLen, bestDist = l, i-c
			}
			cand = prev[c]
		}
		if bestLen >= minMatch {
			emitLiterals(litStart, i)
			out = append(out, 1)
			n := binary.PutUvarint(tmp[:], uint64(bestDist))
			out = append(out, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], uint64(bestLen))
			out = append(out, tmp[:n]...)
			// Insert hash entries across the match (sparse to stay fast).
			end := i + bestLen
			for ; i < end && i+minMatch <= len(src); i++ {
				hh := hash4(src[i:])
				prev[i] = head[hh]
				head[hh] = int32(i)
			}
			i = end
			litStart = i
			continue
		}
		prev[i] = head[h]
		head[h] = int32(i)
		i++
	}
	emitLiterals(litStart, len(src))
	return out
}

// DecompressBytes inverts CompressBytes into dst, which the stream must fill
// exactly: a literal run or match longer than the room left is rejected
// before a byte of it is copied, so a damaged length cannot make the decoder
// work or allocate past the destination.
func DecompressBytes(dst, data []byte) error {
	pos := 0
	for len(data) > 0 {
		tok := data[0]
		data = data[1:]
		switch tok {
		case 0:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l || uint64(len(dst)-pos) < l {
				return errCorrupt
			}
			pos += copy(dst[pos:], data[n:n+int(l)])
			data = data[n+int(l):]
		case 1:
			dist, n := binary.Uvarint(data)
			if n <= 0 {
				return errCorrupt
			}
			data = data[n:]
			l, n := binary.Uvarint(data)
			if n <= 0 {
				return errCorrupt
			}
			data = data[n:]
			if dist == 0 || dist > uint64(pos) || uint64(len(dst)-pos) < l {
				return errCorrupt
			}
			// Byte-at-a-time copy supports overlapping matches.
			for end := pos + int(l); pos < end; pos++ {
				dst[pos] = dst[pos-int(dist)]
			}
		default:
			return errCorrupt
		}
	}
	if pos != len(dst) {
		return errCorrupt
	}
	return nil
}

// CompressAppend implements codec.Codec over the float batch bytes.
func (LZSSCodec) CompressAppend(dst []byte, src []float32, dim int) ([]byte, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("lz4like: bad dim %d", dim)
	}
	return CompressBytes(appendHeader(dst, dim, len(src)), toBytes(src)), nil
}

// DecompressInto implements codec.Codec.
func (LZSSCodec) DecompressInto(dst []float32, frame []byte) (int, error) {
	dim, payload, err := parseHeader(frame, len(dst))
	if err != nil {
		return 0, err
	}
	raw := make([]byte, 4*len(dst))
	if err := DecompressBytes(raw, payload); err != nil {
		return 0, err
	}
	fromBytes(dst, raw)
	return dim, nil
}

// DeflateCodec wraps compress/flate as the nvCOMP-Deflate stand-in.
type DeflateCodec struct{}

// Name implements codec.Codec.
func (DeflateCodec) Name() string { return "deflate" }

// Lossy implements codec.Codec.
func (DeflateCodec) Lossy() bool { return false }

// CompressAppend implements codec.Codec.
func (DeflateCodec) CompressAppend(dst []byte, src []float32, dim int) ([]byte, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("lz4like: bad dim %d", dim)
	}
	buf := bytes.NewBuffer(appendHeader(dst, dim, len(src)))
	w, err := flate.NewWriter(buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(toBytes(src)); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecompressInto implements codec.Codec. The stream is read through a limit
// of the destination's bytes plus one: the spare byte tells a stream that
// ends cleanly where the header said from one that keeps inflating.
func (DeflateCodec) DecompressInto(dst []float32, frame []byte) (int, error) {
	dim, payload, err := parseHeader(frame, len(dst))
	if err != nil {
		return 0, err
	}
	r := flate.NewReader(bytes.NewReader(payload))
	raw := make([]byte, 4*len(dst))
	if _, err := io.ReadFull(r, raw); err != nil {
		return 0, errCorrupt
	}
	var spare [1]byte
	if n, err := r.Read(spare[:]); n != 0 || err != io.EOF {
		return 0, errCorrupt
	}
	fromBytes(dst, raw)
	return dim, nil
}
