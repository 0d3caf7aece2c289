package hybrid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"dlrmcomp/internal/huffman"
	"dlrmcomp/internal/vlz"
)

var errCorrupt = errors.New("hybrid: corrupt frame")

// Mode selects the lossless stage.
type Mode int

const (
	// Auto emits whichever encoder's frame is smaller, ties to vector-LZ
	// (the per-table "hybrid" column of Table V). It decides from sizes —
	// the Huffman frame's planned length is vector-LZ's byte budget — so
	// the losing frame is never written.
	Auto Mode = iota
	// VectorLZ forces the vector-based LZ encoder ("Ours-Vector").
	VectorLZ
	// Entropy forces the optimized Huffman encoder ("Ours-Huffman").
	Entropy
)

func (m Mode) String() string {
	switch m {
	case VectorLZ:
		return "ours-vector"
	case Entropy:
		return "ours-huffman"
	default:
		return "ours-hybrid"
	}
}

// Codec is the paper's compressor.
type Codec struct {
	EB   float32
	Mode Mode
}

// New returns the hybrid codec with the given error bound and mode.
func New(eb float32, mode Mode) *Codec { return &Codec{EB: eb, Mode: mode} }

// Name implements codec.Codec.
func (c *Codec) Name() string { return c.Mode.String() }

// Lossy implements codec.Codec.
func (c *Codec) Lossy() bool { return true }

// SetErrorBound implements codec.ErrorBounded.
func (c *Codec) SetErrorBound(eb float32) { c.EB = eb }

// ErrorBound implements codec.ErrorBounded.
func (c *Codec) ErrorBound() float32 { return c.EB }

// Sub-encoder tags in the frame header.
const (
	subVLZ     = 0
	subEntropy = 1
)

// headerLen is the fixed frame prefix: error bound (float32 bits), row
// length dim, value count n (all little-endian uint32), sub-encoder tag.
const headerLen = 13

// header is the parsed, validated frame prefix.
type header struct {
	eb  float32
	dim int
	n   int
	sub byte
}

// usableEB reports whether eb can quantize: positive and finite. A NaN or
// +Inf bound would turn every value into NaN/Inf with no error.
func usableEB(eb float32) bool {
	return eb > 0 && !math.IsInf(float64(eb), 1)
}

// parseHeader is the one place a frame prefix is read and checked; the
// payload follows at frame[headerLen:].
func parseHeader(frame []byte) (header, error) {
	if len(frame) < headerLen {
		return header{}, errCorrupt
	}
	h := header{
		eb:  math.Float32frombits(binary.LittleEndian.Uint32(frame[0:])),
		dim: int(binary.LittleEndian.Uint32(frame[4:])),
		n:   int(binary.LittleEndian.Uint32(frame[8:])),
		sub: frame[12],
	}
	if !usableEB(h.eb) || h.dim <= 0 || h.n < 0 || h.n%h.dim != 0 || h.sub > subEntropy {
		return header{}, errCorrupt
	}
	return h, nil
}

// Compress is CompressAppend into a fresh buffer, for callers that keep no
// send buffer of their own (the facade quick start).
func (c *Codec) Compress(src []float32, dim int) ([]byte, error) {
	return c.CompressAppend(nil, src, dim)
}

// Decompress is DecompressInto a fresh buffer sized from the header, for
// callers that do not know the frame's value count. The header's count is
// untrusted, so nothing is allocated until the payload's own count agrees
// with it — a damaged or header-only frame claiming billions of values is
// rejected for the price of two varints.
func (c *Codec) Decompress(frame []byte) ([]float32, int, error) {
	h, err := parseHeader(frame)
	if err != nil {
		return nil, 0, err
	}
	payload := frame[headerLen:]
	if h.sub == subVLZ {
		rows, dim, err := vlz.RowCount(payload)
		if err != nil {
			return nil, 0, err
		}
		if dim != h.dim || rows != h.n/h.dim {
			return nil, 0, errCorrupt
		}
	} else {
		count, err := huffman.SymbolCount(payload)
		if err != nil {
			return nil, 0, err
		}
		if count != h.n {
			return nil, 0, errCorrupt
		}
	}
	out := make([]float32, h.n)
	if err := decodeInto(out, h, payload); err != nil {
		return nil, 0, err
	}
	return out, h.dim, nil
}

// SubEncoderOf reports which lossless stage produced the frame ("vlz" or
// "huffman"), for experiment reporting.
func SubEncoderOf(frame []byte) (string, error) {
	h, err := parseHeader(frame)
	if err != nil {
		return "", err
	}
	if h.sub == subVLZ {
		return "vlz", nil
	}
	return "huffman", nil
}

// --- Eq. (2) speed-up model and compressor selection (Algorithm 2) --------

// Throughput describes a compressor's measured or calibrated speeds in
// bytes per second.
type Throughput struct {
	Compress   float64
	Decompress float64
}

// Speedup evaluates Eq. (2) of the paper:
//
//	speedup = 1 / (1/CR + B·(1/Tc + 1/Td))
//
// where CR is the compression ratio, B the network bandwidth, and Tc/Td the
// compression/decompression throughputs (all in consistent byte/s units).
func Speedup(cr, netBandwidth float64, tp Throughput) float64 {
	if cr <= 0 || tp.Compress <= 0 || tp.Decompress <= 0 {
		return 0
	}
	return 1.0 / (1.0/cr + netBandwidth*(1.0/tp.Compress+1.0/tp.Decompress))
}

// Candidate couples a mode with its measured stats on sampled data.
type Candidate struct {
	Mode       Mode
	Ratio      float64
	Throughput Throughput
	Speedup    float64
}

// selectReps is how many timed round trips SelectEncoder runs per encoder.
// A single time.Now sample on a batch-sized input is dominated by scheduler
// and cache noise; taking the best of several reps makes Algorithm 2's mode
// choice stable run to run (pinned by a determinism test).
const selectReps = 3

// SelectEncoder implements Algorithm 2 for one table: it round-trips the
// sampled batch through both encoders, measures ratio and throughput, and
// returns the mode with the best Eq. (2) speed-up under the given network
// bandwidth (bytes/s). Timings run selectReps times through the buffered
// (steady-state) codec path and keep the best rep, so the decision reflects
// kernel speed rather than one-shot allocation and scheduling noise. The
// returned candidates are sorted by evaluation order (VectorLZ, Entropy)
// for reporting.
//
// This is the reproduction of the paper's Algorithm 2, reached through
// adapt.OfflineOptions.SelectEncoders by cmd/offline and
// examples/codec_explorer. It is not a trainer speed feature: Auto decides
// per chunk from sizes for the price of one histogram, so the trainer runs
// Auto and has no use for a timed offline choice.
func SelectEncoder(sample []float32, dim int, eb float32, netBandwidth float64) (Mode, []Candidate, error) {
	if len(sample) == 0 {
		return Entropy, nil, fmt.Errorf("hybrid: empty sample")
	}
	var cands []Candidate
	var frame []byte
	recon := make([]float32, len(sample))
	for _, mode := range []Mode{VectorLZ, Entropy} {
		c := New(eb, mode)
		var ct, dt time.Duration
		for rep := 0; rep < selectReps; rep++ {
			start := time.Now()
			f, err := c.CompressAppend(frame[:0], sample, dim)
			if err != nil {
				return 0, nil, err
			}
			if d := time.Since(start); rep == 0 || d < ct {
				ct = d
			}
			frame = f
			start = time.Now()
			if _, err := c.DecompressInto(recon, frame); err != nil {
				return 0, nil, err
			}
			if d := time.Since(start); rep == 0 || d < dt {
				dt = d
			}
		}
		bytesIn := float64(len(sample) * 4)
		tp := Throughput{
			Compress:   bytesIn / secondsAtLeast(ct),
			Decompress: bytesIn / secondsAtLeast(dt),
		}
		cr := bytesIn / float64(len(frame))
		cands = append(cands, Candidate{
			Mode:       mode,
			Ratio:      cr,
			Throughput: tp,
			Speedup:    Speedup(cr, netBandwidth, tp),
		})
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Speedup > best.Speedup {
			best = c
		}
	}
	return best.Mode, cands, nil
}

func secondsAtLeast(d time.Duration) float64 {
	s := d.Seconds()
	if s < 1e-9 {
		return 1e-9
	}
	return s
}
