package cuszlike

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dlrmcomp/internal/huffman"
	"dlrmcomp/internal/quant"
)

var errCorrupt = errors.New("cuszlike: corrupt frame")

// Predictor selects the prediction stencil.
type Predictor int

const (
	// Lorenzo1D predicts each code from its predecessor in the flattened
	// stream.
	Lorenzo1D Predictor = iota
	// Lorenzo2D predicts code (i,j) from (i,j-1), (i-1,j), (i-1,j-1) — the
	// 2×2 stencil of Fig. 4.
	Lorenzo2D
)

// Codec is the cuSZ-like compressor.
type Codec struct {
	EB   float32
	Pred Predictor
}

// New returns a cuSZ-like codec with the given error bound and predictor.
func New(eb float32, pred Predictor) *Codec {
	return &Codec{EB: eb, Pred: pred}
}

// Name implements codec.Codec.
func (c *Codec) Name() string {
	if c.Pred == Lorenzo2D {
		return "cusz-like-2d"
	}
	return "cusz-like"
}

// Lossy implements codec.Codec.
func (c *Codec) Lossy() bool { return true }

// SetErrorBound implements codec.ErrorBounded.
func (c *Codec) SetErrorBound(eb float32) { c.EB = eb }

// ErrorBound implements codec.ErrorBounded.
func (c *Codec) ErrorBound() float32 { return c.EB }

// predict converts codes to residuals in place semantics (returns new slice).
func predictResiduals(codes []int32, dim int, pred Predictor) []int32 {
	res := make([]int32, len(codes))
	if pred == Lorenzo1D {
		prev := int32(0)
		for i, c := range codes {
			res[i] = c - prev
			prev = c
		}
		return res
	}
	rows := len(codes) / dim
	at := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return 0
		}
		return codes[i*dim+j]
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < dim; j++ {
			p := at(i, j-1) + at(i-1, j) - at(i-1, j-1)
			res[i*dim+j] = codes[i*dim+j] - p
		}
	}
	return res
}

// unpredict inverts predictResiduals.
func unpredict(res []int32, dim int, pred Predictor) []int32 {
	codes := make([]int32, len(res))
	if pred == Lorenzo1D {
		prev := int32(0)
		for i, r := range res {
			prev += r
			codes[i] = prev
		}
		return codes
	}
	rows := len(res) / dim
	at := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return 0
		}
		return codes[i*dim+j]
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < dim; j++ {
			p := at(i, j-1) + at(i-1, j) - at(i-1, j-1)
			codes[i*dim+j] = res[i*dim+j] + p
		}
	}
	return codes
}

// headerLen is the frame prefix: error bound (float32 bits), row length dim,
// value count n (little-endian uint32 each), predictor tag.
const headerLen = 13

// CompressAppend implements codec.Codec.
func (c *Codec) CompressAppend(dst []byte, src []float32, dim int) ([]byte, error) {
	if dim <= 0 || len(src)%dim != 0 {
		return nil, fmt.Errorf("cuszlike: bad shape len=%d dim=%d", len(src), dim)
	}
	q := quant.New(c.EB)
	codes := make([]int32, len(src))
	q.Quantize(codes, src)
	res := predictResiduals(codes, dim, c.Pred)

	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(c.EB))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
	dst = append(dst, byte(c.Pred))
	// A huffman.Encoder is not safe for concurrent use and a Codec must be,
	// so each call builds its own.
	return huffman.NewEncoder().AppendEncode(dst, quant.ZigZagSlice(res)), nil
}

// DecompressInto implements codec.Codec.
func (c *Codec) DecompressInto(dst []float32, frame []byte) (int, error) {
	if len(frame) < headerLen {
		return 0, errCorrupt
	}
	eb := math.Float32frombits(binary.LittleEndian.Uint32(frame[0:]))
	dim := int(binary.LittleEndian.Uint32(frame[4:]))
	n := int(binary.LittleEndian.Uint32(frame[8:]))
	pred := Predictor(frame[12])
	if !(eb > 0) || math.IsInf(float64(eb), 1) || dim <= 0 || n != len(dst) || n%dim != 0 {
		return 0, errCorrupt
	}
	syms := make([]uint32, n)
	if _, err := huffman.NewDecoder().DecodeInto(syms, frame[headerLen:]); err != nil {
		return 0, err
	}
	codes := unpredict(quant.UnZigZagSlice(syms), dim, pred)
	quant.New(eb).Dequantize(dst, codes)
	return dim, nil
}

// ResidualEntropy returns the empirical zeroth-order entropy (bits/symbol)
// of the predictor residuals and of the raw codes for a batch — the
// quantitative form of the false-prediction observation.
func (c *Codec) ResidualEntropy(src []float32, dim int) (rawBits, residBits float64, err error) {
	if dim <= 0 || len(src)%dim != 0 {
		return 0, 0, fmt.Errorf("cuszlike: bad shape")
	}
	q := quant.New(c.EB)
	codes := make([]int32, len(src))
	q.Quantize(codes, src)
	res := predictResiduals(codes, dim, c.Pred)
	return entropy(codes), entropy(res), nil
}

func entropy(codes []int32) float64 {
	if len(codes) == 0 {
		return 0
	}
	freq := make(map[int32]int)
	for _, c := range codes {
		freq[c]++
	}
	var h float64
	n := float64(len(codes))
	for _, f := range freq {
		p := float64(f) / n
		h -= p * math.Log2(p)
	}
	return h
}
