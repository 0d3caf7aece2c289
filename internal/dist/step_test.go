package dist

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/tensor"
)

// TestCodecRoundTripInsideTrainer drives the compressed forward all-to-all
// and checks, via the reconstruction hook, that every lookup value a rank
// receives differs from the exact table row by at most the error bound —
// the paper's per-element guarantee — and that compression actually bought
// something (CompressionRatio > 1).
func TestCodecRoundTripInsideTrainer(t *testing.T) {
	const eb = 0.01
	spec := testSpec()
	tr, err := NewTrainer(Options{
		Ranks:    4,
		Model:    testConfig(spec, 8),
		CodecFor: func(int) codec.Codec { return hybrid.New(eb, hybrid.Auto) },
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var maxDiff float64
	checked := 0
	tr.fwdHook = func(rank, table int, recon *tensor.Matrix, indices []int32) {
		exact := tr.tmpl.Emb.Tables[table].Lookup(indices)
		var localMax float64
		for i := range recon.Data {
			d := math.Abs(float64(recon.Data[i] - exact.Data[i]))
			if d > localMax {
				localMax = d
			}
		}
		mu.Lock()
		if localMax > maxDiff {
			maxDiff = localMax
		}
		checked += len(recon.Data)
		mu.Unlock()
	}

	gen := criteo.NewGenerator(spec)
	for i := 0; i < 3; i++ {
		if _, err := tr.Step(gen.NextBatch(64)); err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("hook never ran")
	}
	if maxDiff > eb*1.01 {
		t.Fatalf("reconstruction error %v exceeds bound %v", maxDiff, eb)
	}
	if cr := tr.CompressionRatio(); cr <= 1 {
		t.Fatalf("compression ratio %v, want > 1", cr)
	}
}

// TestSimTimeBuckets checks that one compressed step charges every bucket
// the breakdown figures read.
func TestSimTimeBuckets(t *testing.T) {
	spec := testSpec()
	tr, err := NewTrainer(Options{
		Ranks:              4,
		Model:              testConfig(spec, 8),
		OtherComputeFactor: 0.8,
		CodecFor:           func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) },
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := criteo.NewGenerator(spec)
	if _, err := tr.Step(gen.NextBatch(32)); err != nil {
		t.Fatal(err)
	}
	times := tr.Cluster().SimTimes()
	for _, label := range []string{"fwd-a2a", "bwd-a2a", "allreduce", "mlp", "lookup", "other", "compress", "decompress"} {
		if times[label] <= 0 {
			t.Fatalf("bucket %q not charged: %v", label, times)
		}
	}
}

// TestControllerDrivesErrorBounds verifies the iteration-wise decay: bounds
// start at startFactor times the class base and settle at the base once the
// initial phase ends.
func TestControllerDrivesErrorBounds(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 4)
	classes := make([]adapt.Class, len(cfg.TableSizes))
	for i := range classes {
		classes[i] = adapt.ClassMedium
	}
	const phase = 8
	ctrl, err := adapt.NewController(classes, adapt.PaperEBConfig(), adapt.ScheduleStepwise, phase, 2)
	if err != nil {
		t.Fatal(err)
	}
	codecs := make([]codec.Codec, len(classes))
	for i := range codecs {
		codecs[i] = hybrid.New(0.03, hybrid.Auto)
	}
	tr, err := NewTrainer(Options{
		Ranks:      2,
		Model:      cfg,
		CodecFor:   func(tb int) codec.Codec { return codecs[tb] },
		Controller: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}

	gen := criteo.NewGenerator(spec)
	base := adapt.PaperEBConfig().Medium
	if _, err := tr.Step(gen.NextBatch(8)); err != nil {
		t.Fatal(err)
	}
	if got := codecs[0].(codec.ErrorBounded).ErrorBound(); got != base*2 {
		t.Fatalf("iteration 0 bound %v, want %v", got, base*2)
	}
	for i := 1; i <= phase; i++ {
		if _, err := tr.Step(gen.NextBatch(8)); err != nil {
			t.Fatal(err)
		}
	}
	if got := codecs[0].(codec.ErrorBounded).ErrorBound(); got != base {
		t.Fatalf("post-phase bound %v, want %v", got, base)
	}
}

// failingCodec errors on every call.
type failingCodec struct{}

func (failingCodec) Name() string { return "failing" }
func (failingCodec) Lossy() bool  { return false }
func (failingCodec) CompressAppend([]byte, []float32, int) ([]byte, error) {
	return nil, errors.New("boom")
}
func (failingCodec) DecompressInto([]float32, []byte) (int, error) {
	return 0, errors.New("boom")
}

// TestFailedStepAppliesNoUpdates checks that a codec failure on one table
// surfaces as an error without mutating any parameter: no partial
// embedding scatter, no MLP update.
func TestFailedStepAppliesNoUpdates(t *testing.T) {
	spec := testSpec()
	tr, err := NewTrainer(Options{
		Ranks: 4,
		Model: testConfig(spec, 4),
		CodecFor: func(tb int) codec.Codec {
			if tb == 3 {
				return failingCodec{}
			}
			return hybrid.New(0.01, hybrid.Auto)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var before []float32
	for _, tab := range tr.tmpl.Emb.Tables {
		before = append(before, tab.Weights.Data...)
	}
	for _, p := range tr.tmpl.DenseParams() {
		before = append(before, p.Value...)
	}

	gen := criteo.NewGenerator(spec)
	if _, err := tr.Step(gen.NextBatch(16)); err == nil {
		t.Fatal("failing codec must surface an error")
	}

	var after []float32
	for _, tab := range tr.tmpl.Emb.Tables {
		after = append(after, tab.Weights.Data...)
	}
	for _, p := range tr.tmpl.DenseParams() {
		after = append(after, p.Value...)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("parameter %d changed after failed step: %v -> %v", i, before[i], after[i])
		}
	}
}

// TestSharedCodecWithControllerRejected: a controller cannot drive
// per-table bounds through one shared instance.
func TestSharedCodecWithControllerRejected(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 4)
	classes := make([]adapt.Class, len(cfg.TableSizes))
	ctrl, err := adapt.NewController(classes, adapt.PaperEBConfig(), adapt.ScheduleNone, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	shared := hybrid.New(0.03, hybrid.Auto)
	_, err = NewTrainer(Options{
		Ranks:      2,
		Model:      cfg,
		CodecFor:   func(int) codec.Codec { return shared },
		Controller: ctrl,
	})
	if err == nil {
		t.Fatal("shared error-bounded codec with controller must be rejected")
	}
}

// appendFrame appends one table frame to dst and returns the grown buffer.
func appendFrame(dst []byte, table int, enc byte, payload []byte) []byte {
	dst, off := appendFrameHeader(dst, table, enc)
	dst = append(dst, payload...)
	patchFrameLen(dst, off)
	return dst
}

// TestWireRoundTrip exercises the fused frame format directly.
func TestWireRoundTrip(t *testing.T) {
	vals := []float32{1.5, -2.25, 0, 3e-7}
	var buf []byte
	buf = appendFrame(buf, 7, encRaw, appendFloats(nil, vals))
	if fused := appendFrameFloats(nil, 7, vals); !bytes.Equal(fused, buf) {
		t.Fatalf("appendFrameFloats wrote %x, header+appendFloats %x", fused, buf)
	}
	buf = appendFrame(buf, 21, encCodec, []byte{9, 8, 7})

	var seen int
	err := parseFrames(buf, func(table int, enc byte, payload []byte) error {
		seen++
		switch table {
		case 7:
			got := make([]float32, len(vals))
			if err := bytesToFloats(got, payload); err != nil {
				return err
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("value %d: %v != %v", i, got[i], vals[i])
				}
			}
		case 21:
			if enc != encCodec || len(payload) != 3 {
				t.Fatalf("frame 21: enc %d len %d", enc, len(payload))
			}
		default:
			t.Fatalf("unexpected table %d", table)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("saw %d frames", seen)
	}
	if err := parseFrames(buf[:5], func(int, byte, []byte) error { return nil }); err == nil {
		t.Fatal("truncated buffer must fail")
	}
}

// TestStepWireGolden pins the trainer's wire bytes across commits: for each
// of three steps it hashes every rank's fused forward (send) and backward
// (send2) buffers and records the step's loss bits, at 4 ranks with the
// hybrid codec under a decaying adaptive controller, at 4 ranks
// uncompressed, and at 1 rank. testdata/wire.golden holds one line per
// (configuration, step). A refactor of the exchange must leave it
// unchanged; an intended wire change regenerates the file from the "got"
// block printed on mismatch.
func TestStepWireGolden(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	adaptive := func() Options {
		classes := make([]adapt.Class, len(cfg.TableSizes))
		for i := range classes {
			classes[i] = []adapt.Class{adapt.ClassLarge, adapt.ClassMedium, adapt.ClassSmall}[i%3]
		}
		ctrl, err := adapt.NewController(classes, adapt.PaperEBConfig(), adapt.ScheduleStepwise, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		codecs := make([]codec.Codec, len(classes))
		for i := range codecs {
			codecs[i] = hybrid.New(0.03, hybrid.Auto)
		}
		return Options{Ranks: 4, Model: cfg, CodecFor: func(tb int) codec.Codec { return codecs[tb] }, Controller: ctrl}
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"4ranks_hybrid_adaptive", adaptive()},
		{"4ranks_none", Options{Ranks: 4, Model: cfg}},
		{"1rank_none", Options{Ranks: 1, Model: cfg}},
	}
	var got strings.Builder
	for _, tc := range cases {
		tr, err := NewTrainer(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		gen := criteo.NewGenerator(spec)
		for step := 0; step < 3; step++ {
			loss, err := tr.Step(gen.NextBatch(64))
			if err != nil {
				t.Fatal(err)
			}
			fwd, bwd := sha256.New(), sha256.New()
			for _, ws := range tr.ws {
				for dst := range ws.send {
					fmt.Fprintf(fwd, "%d:", len(ws.send[dst]))
					fwd.Write(ws.send[dst])
					fmt.Fprintf(bwd, "%d:", len(ws.send2[dst]))
					bwd.Write(ws.send2[dst])
				}
			}
			fmt.Fprintf(&got, "%s step=%d loss=%08x fwd=%x bwd=%x\n",
				tc.name, step, math.Float32bits(loss), fwd.Sum(nil), bwd.Sum(nil))
		}
		tr.Close()
	}
	golden := filepath.Join("testdata", "wire.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v\n--- got ---\n%s", err, got.String())
	}
	if got.String() != string(want) {
		t.Fatalf("wire drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}
