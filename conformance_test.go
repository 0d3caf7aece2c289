package dlrmcomp_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"dlrmcomp"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/cuszlike"
	"dlrmcomp/internal/tensor"
	"dlrmcomp/internal/testutil"
)

// baselineCodecs returns the seven comparator codecs with a mid-range error
// bound where applicable.
func baselineCodecs() []codec.Codec {
	return []codec.Codec{
		dlrmcomp.NewCuSZLikeCodec(0.01),
		cuszlike.New(0.01, cuszlike.Lorenzo2D),
		dlrmcomp.NewFZGPULikeCodec(0.01),
		dlrmcomp.NewLZ4LikeCodec(),
		dlrmcomp.NewDeflateCodec(),
		dlrmcomp.NewFP16Codec(),
		dlrmcomp.NewFP8Codec(),
	}
}

// allCodecs returns every codec in the repository: the hybrid family and the
// baselines.
func allCodecs() []codec.Codec {
	return append([]codec.Codec{
		dlrmcomp.NewCompressor(0.01, dlrmcomp.ModeAuto),
		dlrmcomp.NewCompressor(0.01, dlrmcomp.ModeVectorLZ),
		dlrmcomp.NewCompressor(0.01, dlrmcomp.ModeEntropy),
	}, baselineCodecs()...)
}

// decodeNoPanic runs DecompressInto on a frame that may be damaged: an error
// is fine, a panic is the bug.
func decodeNoPanic(t *testing.T, c codec.Codec, dst []float32, frame []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked on %s (%d bytes): %v", c.Name(), what, len(frame), r)
		}
	}()
	_, _ = c.DecompressInto(dst, frame)
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
			recon, _, err := testutil.RoundTrip(c, src, sh.dim)
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

// TestConformanceBufferedPath is the append-path conformance every codec is
// held to: CompressAppend preserves the bytes already in the destination and
// appends exactly the frame a fresh CompressAppend(nil, …) returns;
// DecompressInto fills a destination of the frame's value count, reports the
// row length, and rejects a destination of any other length before decoding.
func TestConformanceBufferedPath(t *testing.T) {
	rng := tensor.NewRNG(7)
	src := make([]float32, 96*16)
	rng.FillNormal(src, 0, 0.3)
	prefix := []byte{0xA5, 0x5A, 0x00}
	for _, c := range allCodecs() {
		ref, err := c.CompressAppend(nil, src, 16)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		frame, err := c.CompressAppend(slices.Clone(prefix), src, 16)
		if err != nil {
			t.Fatalf("%s: CompressAppend: %v", c.Name(), err)
		}
		if !bytes.HasPrefix(frame, prefix) {
			t.Fatalf("%s: CompressAppend overwrote the destination's bytes", c.Name())
		}
		if !bytes.Equal(frame[len(prefix):], ref) {
			t.Fatalf("%s: frame appended behind a prefix differs from a fresh one", c.Name())
		}
		want, _, err := testutil.RoundTrip(c, src, 16)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		dst := make([]float32, len(src))
		dim, err := c.DecompressInto(dst, ref)
		if err != nil || dim != 16 {
			t.Fatalf("%s: DecompressInto: dim %d, err %v", c.Name(), dim, err)
		}
		if !slices.Equal(dst, want) {
			t.Fatalf("%s: two decodes of one frame differ", c.Name())
		}
		for _, n := range []int{0, len(src) - 16, len(src) + 16} {
			if _, err := c.DecompressInto(make([]float32, n), ref); err == nil {
				t.Fatalf("%s: a %d-value frame decoded into %d values", c.Name(), len(src), n)
			}
		}
	}
}

// TestConformanceBaselineFrames pins the baseline codecs' frames across
// commits: testdata/frames.golden holds one "codec/case length sha256" line
// per frame, captured through Compress before the baselines moved to the
// append pair. DLCK checkpoints (lzss, deflate) and the size columns of
// fig8/fig11/table5 rest on these bytes. An intended format change
// regenerates the file from the "got" block printed on mismatch.
func TestConformanceBaselineFrames(t *testing.T) {
	rng := tensor.NewRNG(42)
	noise := func(n int, std float32) []float32 {
		v := make([]float32, n)
		rng.FillNormal(v, 0, std)
		return v
	}
	// 96 lookups over 12 hot rows: the repeated-vector shape of a real
	// lookup batch.
	keys := noise(12*16, 0.5)
	hot := make([]float32, 0, 96*16)
	for r := 0; r < 96; r++ {
		k := rng.Intn(12)
		hot = append(hot, keys[k*16:(k+1)*16]...)
	}
	constant := make([]float32, 64*8)
	for i := range constant {
		constant[i] = 0.42
	}
	cases := []struct {
		name string
		src  []float32
		dim  int
	}{
		{"hotkeys96x16", hot, 16},
		{"noise33x7", noise(33*7, 1), 7},
		{"single-row", noise(16, 0.5), 16},
		{"constant", constant, 8},
		{"zeros", make([]float32, 64*8), 8},
		{"empty", nil, 4},
	}
	var digests strings.Builder
	for _, c := range baselineCodecs() {
		for _, tc := range cases {
			frame, err := c.CompressAppend(nil, tc.src, tc.dim)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name(), tc.name, err)
			}
			fmt.Fprintf(&digests, "%s/%s %d %x\n", c.Name(), tc.name, len(frame), sha256.Sum256(frame))
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

// TestConformanceConcurrentUse holds every codec to the contract
// codec.Codec documents: one instance is shared across goroutines (the
// trainer shares a table's codec across rank goroutines and codec workers).
// Eight goroutines compress and decompress through one instance and every
// frame and reconstruction must equal the single-goroutine one. Run under
// -race this also catches a codec that keeps a non-thread-safe encoder on
// the instance.
func TestConformanceConcurrentUse(t *testing.T) {
	rng := tensor.NewRNG(8)
	src := make([]float32, 64*16)
	rng.FillNormal(src, 0, 0.3)
	for _, c := range allCodecs() {
		t.Run(c.Name(), func(t *testing.T) {
			wantFrame, err := c.CompressAppend(nil, src, 16)
			if err != nil {
				t.Fatal(err)
			}
			wantVals := make([]float32, len(src))
			if _, err := c.DecompressInto(wantVals, wantFrame); err != nil {
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
					var frame []byte
					dst := make([]float32, len(src))
					for rep := 0; rep < 20; rep++ {
						var err error
						frame, err = c.CompressAppend(frame[:0], src, 16)
						if bad("CompressAppend", err, bytes.Equal(frame, wantFrame)) {
							return
						}
						_, err = c.DecompressInto(dst, frame)
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
			recon, _, err := testutil.RoundTrip(c, src, 16)
			if err != nil {
				t.Fatalf("%s eb %v: %v", c.Name(), bound, err)
			}
			if e := testutil.MaxError(src, recon); e > bound+1e-5 {
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
			frame, err := c.CompressAppend(nil, nil, 4)
			if err != nil {
				return // clean rejection is fine
			}
			if _, err := c.DecompressInto(nil, frame); err != nil {
				t.Fatalf("%s: cannot decode own empty frame: %v", c.Name(), err)
			}
		}()
	}
}

// TestConformanceGarbageFrames feeds deterministic random bytes into every
// decoder: errors are expected, panics are bugs. Pure noise rarely gets past
// the header (its count must name the destination), so each trial also puts
// noise behind a valid frame's first 13 bytes — every codec's header fits in
// them — which is what reaches the payload parsers.
func TestConformanceGarbageFrames(t *testing.T) {
	rng := tensor.NewRNG(3)
	src := make([]float32, 32*8)
	rng.FillNormal(src, 0, 0.3)
	dst := make([]float32, len(src))
	for _, c := range allCodecs() {
		valid, err := c.CompressAppend(nil, src, 8)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for trial := 0; trial < 200; trial++ {
			noise := make([]byte, rng.Intn(200))
			for i := range noise {
				noise[i] = byte(rng.Uint64())
			}
			decodeNoPanic(t, c, dst, noise, fmt.Sprintf("garbage frame (trial %d)", trial))
			decodeNoPanic(t, c, dst, append(valid[:13:13], noise...), fmt.Sprintf("garbage payload (trial %d)", trial))
		}
	}
}

// TestConformanceTruncatedFrames truncates valid frames at every prefix
// length: decoders must error or return, never panic.
func TestConformanceTruncatedFrames(t *testing.T) {
	rng := tensor.NewRNG(4)
	src := make([]float32, 32*8)
	rng.FillNormal(src, 0, 0.3)
	dst := make([]float32, len(src))
	for _, c := range allCodecs() {
		frame, err := c.CompressAppend(nil, src, 8)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		step := 1
		if len(frame) > 256 {
			step = len(frame) / 256
		}
		for cut := 0; cut < len(frame); cut += step {
			decodeNoPanic(t, c, dst, frame[:cut], fmt.Sprintf("truncation at %d/%d", cut, len(frame)))
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
	dst := make([]float32, len(src))
	for _, c := range allCodecs() {
		frame, err := c.CompressAppend(nil, src, 16)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for trial := 0; trial < 100; trial++ {
			corrupted := slices.Clone(frame)
			pos := rng.Intn(len(corrupted))
			corrupted[pos] ^= 1 << uint(rng.Intn(8))
			decodeNoPanic(t, c, dst, corrupted, fmt.Sprintf("bitflip at byte %d", pos))
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
