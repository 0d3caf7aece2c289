package dlrmcomp_test

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"dlrmcomp"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/cuszlike"
	"dlrmcomp/internal/quant"
	"dlrmcomp/internal/tensor"
)

// allCodecs returns every codec in the repository with a mid-range error
// bound where applicable.
func allCodecs() []codec.Codec {
	return []codec.Codec{
		dlrmcomp.NewCompressor(0.01, dlrmcomp.ModeAuto),
		dlrmcomp.NewCompressor(0.01, dlrmcomp.ModeVectorLZ),
		dlrmcomp.NewCompressor(0.01, dlrmcomp.ModeEntropy),
		dlrmcomp.NewCuSZLikeCodec(0.01),
		cuszlike.New(0.01, cuszlike.Lorenzo2D),
		dlrmcomp.NewFZGPULikeCodec(0.01),
		dlrmcomp.NewLZ4LikeCodec(),
		dlrmcomp.NewDeflateCodec(),
		dlrmcomp.NewFP16Codec(),
		dlrmcomp.NewFP8Codec(),
	}
}

// TestConformanceRoundTrip checks every codec across a grid of shapes and
// value distributions.
func TestConformanceRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	shapes := []struct{ rows, dim int }{{1, 1}, {1, 64}, {7, 3}, {128, 16}, {33, 47}}
	for _, c := range allCodecs() {
		for _, sh := range shapes {
			src := make([]float32, sh.rows*sh.dim)
			rng.FillNormal(src, 0, 0.3)
			recon, _, err := codec.RoundTrip(c, src, sh.dim)
			if err != nil {
				t.Fatalf("%s %dx%d: %v", c.Name(), sh.rows, sh.dim, err)
			}
			if !c.Lossy() {
				for i := range src {
					if recon[i] != src[i] {
						t.Fatalf("%s: lossless codec changed data", c.Name())
					}
				}
			}
		}
	}
}

// TestConformanceBufferedPath checks the buffered helpers against every
// codec: for codec.BufferedCodec implementations (the hybrid family) the
// appended frame must be byte-identical to Compress and the in-place
// reconstruction identical to Decompress; for the rest the fallback path
// must behave the same way.
func TestConformanceBufferedPath(t *testing.T) {
	rng := tensor.NewRNG(7)
	src := make([]float32, 96*16)
	rng.FillNormal(src, 0, 0.3)
	for _, c := range allCodecs() {
		ref, err := c.Compress(src, 16)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		frame, err := codec.CompressAppend(c, []byte{0xA5}, src, 16)
		if err != nil {
			t.Fatalf("%s: CompressAppend: %v", c.Name(), err)
		}
		if frame[0] != 0xA5 || len(frame)-1 != len(ref) {
			t.Fatalf("%s: CompressAppend corrupted the destination", c.Name())
		}
		for i, b := range ref {
			if frame[1+i] != b {
				t.Fatalf("%s: buffered frame differs at byte %d", c.Name(), i)
			}
		}
		refVals, refDim, err := c.Decompress(ref)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		dst := make([]float32, len(refVals))
		dim, err := codec.DecompressInto(c, dst, ref)
		if err != nil {
			t.Fatalf("%s: DecompressInto: %v", c.Name(), err)
		}
		if dim != refDim {
			t.Fatalf("%s: DecompressInto dim %d, want %d", c.Name(), dim, refDim)
		}
		for i := range dst {
			if dst[i] != refVals[i] {
				t.Fatalf("%s: buffered reconstruction differs at %d", c.Name(), i)
			}
		}
	}
}

// TestConformanceConcurrentUse holds every codec to the contract
// codec.Codec documents: one instance is shared across goroutines (the
// trainer shares a table's codec across rank goroutines and codec workers).
// Eight goroutines compress and decompress through one instance — via the
// buffered helpers too — and every frame and reconstruction must equal the
// single-goroutine one. Run under -race this also catches a codec that keeps
// a non-thread-safe encoder on the instance.
func TestConformanceConcurrentUse(t *testing.T) {
	rng := tensor.NewRNG(8)
	src := make([]float32, 64*16)
	rng.FillNormal(src, 0, 0.3)
	for _, c := range allCodecs() {
		t.Run(c.Name(), func(t *testing.T) {
			wantFrame, err := c.Compress(src, 16)
			if err != nil {
				t.Fatal(err)
			}
			wantVals, _, err := c.Decompress(wantFrame)
			if err != nil {
				t.Fatal(err)
			}
			// bad reports a concurrent result that errored or differs from
			// the single-goroutine one.
			bad := func(what string, err error, same bool) bool {
				if err != nil || !same {
					t.Errorf("concurrent %s: err %v, same as single-goroutine result: %v", what, err, same)
				}
				return err != nil || !same
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := make([]float32, len(src))
					for rep := 0; rep < 20; rep++ {
						frame, err := c.Compress(src, 16)
						if bad("Compress", err, bytes.Equal(frame, wantFrame)) {
							return
						}
						appended, err := codec.CompressAppend(c, nil, src, 16)
						if bad("CompressAppend", err, bytes.Equal(appended, wantFrame)) {
							return
						}
						vals, _, err := c.Decompress(frame)
						if bad("Decompress", err, slices.Equal(vals, wantVals)) {
							return
						}
						_, err = codec.DecompressInto(c, dst, frame)
						if bad("DecompressInto", err, slices.Equal(dst, wantVals)) {
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestConformanceErrorBounded verifies the error-bound contract of every
// ErrorBounded codec across bounds.
func TestConformanceErrorBounded(t *testing.T) {
	rng := tensor.NewRNG(2)
	src := make([]float32, 64*16)
	rng.FillNormal(src, 0, 1)
	for _, c := range allCodecs() {
		eb, ok := c.(codec.ErrorBounded)
		if !ok {
			continue
		}
		for _, bound := range []float32{0.001, 0.02, 0.2} {
			eb.SetErrorBound(bound)
			if eb.ErrorBound() != bound {
				t.Fatalf("%s: SetErrorBound did not stick", c.Name())
			}
			recon, _, err := codec.RoundTrip(c, src, 16)
			if err != nil {
				t.Fatalf("%s eb %v: %v", c.Name(), bound, err)
			}
			if e := quant.MaxError(src, recon); e > bound+1e-5 {
				t.Fatalf("%s: bound %v violated: %v", c.Name(), bound, e)
			}
		}
	}
}

// TestConformanceEmptyBatch: zero rows must round trip (or error cleanly),
// never panic.
func TestConformanceEmptyBatch(t *testing.T) {
	for _, c := range allCodecs() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked on empty batch: %v", c.Name(), r)
				}
			}()
			frame, err := c.Compress(nil, 4)
			if err != nil {
				return // clean rejection is fine
			}
			if _, _, err := c.Decompress(frame); err != nil {
				t.Fatalf("%s: cannot decode own empty frame: %v", c.Name(), err)
			}
		}()
	}
}

// TestConformanceGarbageFrames feeds deterministic random bytes into every
// decoder: errors are expected, panics are bugs.
func TestConformanceGarbageFrames(t *testing.T) {
	rng := tensor.NewRNG(3)
	for _, c := range allCodecs() {
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(200)
			frame := make([]byte, n)
			for i := range frame {
				frame[i] = byte(rng.Uint64())
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on garbage frame (trial %d, %d bytes): %v",
							c.Name(), trial, n, r)
					}
				}()
				_, _, _ = c.Decompress(frame)
			}()
		}
	}
}

// TestConformanceTruncatedFrames truncates valid frames at every prefix
// length: decoders must error or return, never panic.
func TestConformanceTruncatedFrames(t *testing.T) {
	rng := tensor.NewRNG(4)
	src := make([]float32, 32*8)
	rng.FillNormal(src, 0, 0.3)
	for _, c := range allCodecs() {
		frame, err := c.Compress(src, 8)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		step := 1
		if len(frame) > 256 {
			step = len(frame) / 256
		}
		for cut := 0; cut < len(frame); cut += step {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on truncation at %d/%d: %v",
							c.Name(), cut, len(frame), r)
					}
				}()
				_, _, _ = c.Decompress(frame[:cut])
			}()
		}
	}
}

// TestConformanceBitflips flips single bits in valid frames; decoding may
// succeed or fail but must not panic, and lossless codecs that "succeed"
// on corrupt frames are tolerated (framing checksum is out of scope, as in
// the paper's wire format).
func TestConformanceBitflips(t *testing.T) {
	rng := tensor.NewRNG(5)
	src := make([]float32, 16*16)
	rng.FillNormal(src, 0, 0.3)
	for _, c := range allCodecs() {
		frame, err := c.Compress(src, 16)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for trial := 0; trial < 100; trial++ {
			corrupted := make([]byte, len(frame))
			copy(corrupted, frame)
			pos := rng.Intn(len(corrupted))
			corrupted[pos] ^= 1 << uint(rng.Intn(8))
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on bitflip at byte %d: %v", c.Name(), pos, r)
					}
				}()
				_, _, _ = c.Decompress(corrupted)
			}()
		}
	}
}

// TestConformanceDistinctNames ensures experiment tables can key on names.
func TestConformanceDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range allCodecs() {
		if seen[c.Name()] {
			t.Fatalf("duplicate codec name %q", c.Name())
		}
		seen[c.Name()] = true
	}
}
