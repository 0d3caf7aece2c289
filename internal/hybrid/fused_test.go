package hybrid

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlrmcomp/internal/quant"
	"dlrmcomp/internal/tensor"
)

// twoPassAlt is the oracle's Auto-mode second-candidate buffer (the shipped
// workspace no longer has one); the tests that run the oracle do so from one
// goroutine.
var twoPassAlt []byte

// compressAppendTwoPass is the pre-fusion shape of CompressAppend — quantize
// everything first, then zigzag for the entropy coder, which finds the
// alphabet bound itself. It ships nowhere; it is the executable reference for
// the fused path's parity test.
func (c *Codec) compressAppendTwoPass(dst []byte, src []float32, dim int) ([]byte, error) {
	if dim <= 0 || len(src)%dim != 0 {
		return nil, fmt.Errorf("hybrid: bad shape len=%d dim=%d", len(src), dim)
	}
	if c.EB <= 0 {
		return nil, fmt.Errorf("hybrid: error bound %v must be positive", c.EB)
	}
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	codes := ws.sizedCodes(len(src))
	quant.New(c.EB).Quantize(codes, src)

	base := len(dst)
	var hdr [13]byte
	binary.LittleEndian.PutUint32(hdr[0:], math.Float32bits(c.EB))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(dim))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(src)))
	dst = append(dst, hdr[:]...)
	payloadStart := len(dst)

	sub := byte(subVLZ)
	switch c.Mode {
	case VectorLZ:
		var err error
		dst, err = ws.venc.AppendEncode(dst, codes, dim)
		if err != nil {
			return nil, err
		}
	case Entropy:
		syms := ws.sizedSyms(len(codes))
		quant.ZigZagInto(syms, codes)
		dst = ws.henc.AppendEncode(dst, syms)
		sub = subEntropy
	default:
		var err error
		dst, err = ws.venc.AppendEncode(dst, codes, dim)
		if err != nil {
			return nil, err
		}
		syms := ws.sizedSyms(len(codes))
		quant.ZigZagInto(syms, codes)
		twoPassAlt = ws.henc.AppendEncode(twoPassAlt[:0], syms)
		if len(twoPassAlt) < len(dst)-payloadStart {
			dst = append(dst[:payloadStart], twoPassAlt...)
			sub = subEntropy
		}
	}
	dst[base+12] = sub
	return dst, nil
}

// parityCase is one input of the conformance matrix.
type parityCase struct {
	name string
	src  []float32
	dim  int
}

// parityCases builds the matrix's inputs: every shape (including single-row
// and ragged widths) and data distribution (hot-key lookup batches, pure
// noise, constant blocks, zero blocks, sign-alternating values that stress
// the zigzag mapping). One generator feeds them in order, and
// testdata/frames.golden pins the frames, so the order is part of the
// contract.
func parityCases() []parityCase {
	rng := tensor.NewRNG(42)
	noise := func(n int, std float32) []float32 {
		v := make([]float32, n)
		rng.FillNormal(v, 0, std)
		return v
	}
	constant := func(n int, val float32) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = val
		}
		return v
	}
	alternating := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(1-2*(i%2)) * float32(i%7) * 0.05
		}
		return v
	}
	return []parityCase{
		{"hotkeys256x16", hotKeyBatch(rng, 256, 16, 32, 0.5), 16},
		{"hotkeys33x7", hotKeyBatch(rng, 33, 7, 8, 0.3), 7},
		{"noise128x16", noise(128*16, 1), 16},
		{"noise-wide", noise(64*16, 25), 16}, // wide alphabet, raw-fallback territory
		{"single-row", noise(16, 0.5), 16},
		{"constant", constant(64*8, 0.42), 8},
		{"zeros", constant(64*8, 0), 8},
		{"alternating", alternating(96 * 12), 12},
		{"empty", nil, 4},
	}
}

// TestFusedEncodeFrameParity pins the fused quantize+zigzag+entropy encoder
// against the two-pass reference over the full conformance matrix: every
// mode, error bound, shape (including single-row and ragged widths), and
// data distribution (hot-key lookup batches, pure noise, constant blocks,
// zero blocks, sign-alternating values that stress the zigzag mapping). The
// frames must be byte-identical — the fusion changes traversal, not output.
//
// The same frames are pinned across commits: testdata/frames.golden holds
// one "mode/eb/case length sha256" line per frame, generated through Compress
// before the allocating encoders left the tree, and Compress and
// CompressAppend must both still produce exactly those bytes. An intended
// format change regenerates the file from the "got" block printed on
// mismatch.
func TestFusedEncodeFrameParity(t *testing.T) {
	cases := parityCases()
	var digests strings.Builder
	for _, mode := range []Mode{Auto, VectorLZ, Entropy} {
		for _, eb := range []float32{0.001, 0.01, 0.1} {
			for _, tc := range cases {
				label := fmt.Sprintf("%v/eb=%v/%s", mode, eb, tc.name)
				c := New(eb, mode)
				ref, errRef := c.compressAppendTwoPass(nil, tc.src, tc.dim)
				got, errGot := c.CompressAppend(nil, tc.src, tc.dim)
				if (errRef == nil) != (errGot == nil) {
					t.Fatalf("%s: error mismatch: two-pass %v, fused %v", label, errRef, errGot)
				}
				if errRef != nil {
					continue
				}
				if !bytes.Equal(ref, got) {
					t.Fatalf("%s: fused frame differs from two-pass (%d vs %d bytes)", label, len(got), len(ref))
				}
				if viaCompress, err := c.Compress(tc.src, tc.dim); err != nil || !bytes.Equal(viaCompress, got) {
					t.Fatalf("%s: Compress differs from CompressAppend (err %v)", label, err)
				}
				fmt.Fprintf(&digests, "%s %d %x\n", label, len(got), sha256.Sum256(got))
			}
		}
	}
	golden := filepath.Join("testdata", "frames.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if digests.String() != string(want) {
		t.Fatalf("frames drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, digests.String(), want)
	}
}

func BenchmarkHybridEncode_Fused(b *testing.B) {
	c := New(0.01, Auto)
	src := benchSample(2048, 64)
	frame, err := c.CompressAppend(nil, src, 64) // warm pooled workspaces
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if frame, err = c.CompressAppend(frame[:0], src, 64); err != nil {
			b.Fatal(err)
		}
	}
}
