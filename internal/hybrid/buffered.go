package hybrid

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/huffman"
	"dlrmcomp/internal/quant"
	"dlrmcomp/internal/vlz"
)

// This file is the compressor itself — the one quantize→encode body and the
// one decode→dequantize body, exposed as codec.Codec's append pair (Compress
// and Decompress in hybrid.go wrap them). Every scratch buffer — the
// quantize-code array, the zigzag symbol array and the sub-encoder
// workspaces — is drawn from a pool and reused, so steady-state operation
// performs no heap allocation. Pooling (rather than
// per-Codec fields) keeps one codec instance safe for concurrent use, which
// the trainer relies on: a table's codec is shared by every rank goroutine
// and by the intra-rank codec workers.

// workspace bundles the reusable state of one in-flight compress or
// decompress call.
type workspace struct {
	codes []int32
	syms  []uint32
	venc  *vlz.Encoder
	vdec  *vlz.Decoder
	henc  *huffman.Encoder
	hdec  *huffman.Decoder
}

var wsPool = sync.Pool{New: func() any {
	return &workspace{
		venc: vlz.New(0),
		vdec: vlz.NewDecoder(),
		henc: huffman.NewEncoder(),
		hdec: huffman.NewDecoder(),
	}
}}

func (ws *workspace) sizedCodes(n int) []int32 {
	if cap(ws.codes) < n {
		ws.codes = make([]int32, n)
	}
	ws.codes = ws.codes[:n]
	return ws.codes
}

func (ws *workspace) sizedSyms(n int) []uint32 {
	if cap(ws.syms) < n {
		ws.syms = make([]uint32, n)
	}
	ws.syms = ws.syms[:n]
	return ws.syms
}

// CompressAppend implements codec.Codec. Quantization is fused with
// the mode's symbol transform — one traversal of src produces the bin codes,
// the zigzag symbols, and the alphabet bound the entropy coder wants. Auto
// mode decides from sizes and emits only the winner: the entropy coder plans
// its frame (histogram, code, exact length — no bits), vector-LZ encodes into
// dst with that length as its byte budget and stops the moment it is strictly
// longer, and only then is the planned entropy frame emitted in its place. A
// tie keeps vector-LZ, so the frame is the one compress-both-keep-the-smaller
// chose. On error the appended bytes are undefined; callers must discard dst.
func (c *Codec) CompressAppend(dst []byte, src []float32, dim int) ([]byte, error) {
	if dim <= 0 || len(src)%dim != 0 {
		return nil, fmt.Errorf("hybrid: bad shape len=%d dim=%d", len(src), dim)
	}
	if !usableEB(c.EB) {
		return nil, fmt.Errorf("hybrid: error bound %v must be positive and finite", c.EB)
	}
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	q := quant.New(c.EB)
	codes := ws.sizedCodes(len(src))

	base := len(dst)
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], math.Float32bits(c.EB))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(dim))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(src)))
	dst = append(dst, hdr[:]...)

	sub := byte(subVLZ)
	switch c.Mode {
	case VectorLZ:
		// Vector-LZ consumes raw bin codes; no symbol pass to fuse with.
		q.Quantize(codes, src)
		var err error
		dst, err = ws.venc.AppendEncode(dst, codes, dim)
		if err != nil {
			return nil, err
		}
	case Entropy:
		syms := ws.sizedSyms(len(src))
		maxSym := q.QuantizeZigZag(codes, syms, src)
		dst = ws.henc.AppendEncodeMax(dst, syms, maxSym)
		sub = subEntropy
	default: // Auto: the smaller frame, ties to vector-LZ
		syms := ws.sizedSyms(len(src))
		maxSym := q.QuantizeZigZag(codes, syms, src)
		budget := ws.henc.Plan(syms, maxSym)
		var within bool
		var err error
		dst, within, err = ws.venc.AppendEncodeWithin(dst, codes, dim, budget)
		if err != nil {
			return nil, err
		}
		if !within {
			dst = ws.henc.AppendPlanned(dst, syms)
			sub = subEntropy
		}
	}
	dst[base+headerLen-1] = sub
	return dst, nil
}

// DecompressInto implements codec.Codec: dst must hold exactly the
// frame's value count. It is the whole-frame case of DecompressRowsInto.
func (c *Codec) DecompressInto(dst []float32, frame []byte) (int, error) {
	h, err := parseHeader(frame)
	if err != nil {
		return 0, err
	}
	if h.n != len(dst) {
		return 0, fmt.Errorf("hybrid: frame holds %d values, destination holds %d", h.n, len(dst))
	}
	if err := decodeRows(dst, h, frame[headerLen:], 0, h.n/h.dim); err != nil {
		return 0, err
	}
	return h.dim, nil
}

// DecompressRowsInto fills dst with rows [lo, hi) of the frame: len(dst)
// must be (hi-lo)·dim and 0 ≤ lo ≤ hi ≤ the frame's row count. The
// lossless stage runs only to the end of row hi-1 and only rows [lo, hi)
// are dequantized, so a caller that needs a few rows of a block (the
// serving tier's cold gathers) pays for the block's prefix, not the block.
// The bytes past row hi-1 are not examined, but on any frame DecompressInto
// accepts, the rows written are bit-identical to that slice of its output.
func (c *Codec) DecompressRowsInto(dst []float32, frame []byte, lo, hi int) error {
	h, err := parseHeader(frame)
	if err != nil {
		return err
	}
	if rows := h.n / h.dim; lo < 0 || lo > hi || hi > rows || len(dst) != (hi-lo)*h.dim {
		return fmt.Errorf("hybrid: rows [%d,%d) into %d values, frame holds %d rows of %d", lo, hi, len(dst), rows, h.dim)
	}
	return decodeRows(dst, h, frame[headerLen:], lo, hi)
}

// decodeRows runs the lossless stage h names over payload up to the end of
// row hi-1 and dequantizes rows [lo, hi) into dst, whose length the caller
// has matched to them. A range that ends at the frame's last row decodes
// the whole payload through the exact-count decoders, so the whole-frame
// path checks the payload's own count against the header's.
func decodeRows(dst []float32, h header, payload []byte, lo, hi int) error {
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	prefix := hi < h.n/h.dim
	q := quant.New(h.eb)
	if h.sub == subVLZ {
		decode := ws.vdec.DecodeInto
		if prefix {
			decode = ws.vdec.DecodePrefixInto
		}
		codes := ws.sizedCodes(hi * h.dim)
		gotDim, err := decode(codes, payload)
		if err != nil {
			return err
		}
		if gotDim != h.dim {
			return errCorrupt
		}
		q.Dequantize(dst, codes[lo*h.dim:])
		return nil
	}
	decode := ws.hdec.DecodeInto
	if prefix {
		decode = ws.hdec.DecodePrefixInto
	}
	syms := ws.sizedSyms(hi * h.dim)
	if _, err := decode(syms, payload); err != nil {
		return err
	}
	q.DequantizeZigZag(dst, syms[lo*h.dim:])
	return nil
}

var _ codec.ErrorBounded = (*Codec)(nil)
