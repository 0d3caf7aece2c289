package hybrid

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dlrmcomp/internal/testutil"
)

// TestBufferedCompressParity pins the acceptance criterion that the
// buffered path emits byte-identical frames to Compress in every mode,
// including the Auto tie-break, and that DecompressInto reconstructs
// value-identically.
func TestBufferedCompressParity(t *testing.T) {
	samples := map[string][]float32{
		"reuse":  benchSample(256, 16),
		"single": benchSample(1, 16),
	}
	for name, src := range samples {
		for _, mode := range []Mode{Auto, VectorLZ, Entropy} {
			c := New(0.01, mode)
			ref, err := c.Compress(src, 16)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.CompressAppend(nil, src, 16)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s/%v: CompressAppend differs from Compress (%d vs %d bytes)",
					name, mode, len(got), len(ref))
			}
			sub, err := SubEncoderOf(got)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s/%v -> %s, %d bytes", name, mode, sub, len(got))

			refVals, refDim, err := c.Decompress(ref)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]float32, len(src))
			dim, err := c.DecompressInto(dst, got)
			if err != nil {
				t.Fatal(err)
			}
			if dim != refDim {
				t.Fatalf("%s/%v: dim %d != %d", name, mode, dim, refDim)
			}
			for i := range dst {
				if dst[i] != refVals[i] {
					t.Fatalf("%s/%v: value %d is %v, want %v", name, mode, i, dst[i], refVals[i])
				}
			}
		}
	}
}

func TestDecompressIntoWrongSize(t *testing.T) {
	c := New(0.01, Auto)
	src := benchSample(16, 8)
	frame, err := c.Compress(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecompressInto(make([]float32, len(src)-1), frame); err == nil {
		t.Fatal("expected error for undersized destination")
	}
}

// TestBufferedRoundTripAllocs pins the tentpole's codec half: a steady-state
// round trip through the buffered API must not allocate, in any mode (Auto
// plans one sub-encoder and runs the other into the frame, so this also
// covers the emit loop's pre-grown destination).
func TestBufferedRoundTripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pins are meaningless under the race detector (instrumented allocations, dropped pools)")
	}
	src := benchSample(256, 16)
	for _, mode := range []Mode{Auto, VectorLZ, Entropy} {
		c := New(0.01, mode)
		var frame []byte
		dst := make([]float32, len(src))
		roundTrip := func() {
			var err error
			frame, err = c.CompressAppend(frame[:0], src, 16)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.DecompressInto(dst, frame); err != nil {
				t.Fatal(err)
			}
		}
		roundTrip() // warm the pooled workspace and frame buffer
		if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 0 {
			t.Errorf("mode %v: steady-state round trip allocates %.1f times per op, want 0", mode, allocs)
		}
	}
}

// TestDecompressBoundsAllocationByPayload pins that the allocating wrapper
// never sizes anything from the header's untrusted value count: a real frame
// whose header claims 1<<31 values, cut at every length from nothing through
// header-only to complete, must be rejected — for both sub-encoders — without
// a single allocation (the payload's own count is compared first).
func TestDecompressBoundsAllocationByPayload(t *testing.T) {
	src := benchSample(64, 16)
	for _, mode := range []Mode{VectorLZ, Entropy} {
		c := New(0.01, mode)
		huge, err := c.Compress(src, 16)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(huge[8:], 1<<31)
		rejectAll := func() {
			for cut := 0; cut <= len(huge); cut++ {
				if _, _, err := c.Decompress(huge[:cut]); err == nil {
					t.Fatalf("%v: frame claiming 1<<31 values, cut at %d/%d, decoded without error", mode, cut, len(huge))
				}
			}
		}
		rejectAll()
		if testutil.RaceEnabled {
			continue // alloc counts are meaningless under the race detector
		}
		if allocs := testing.AllocsPerRun(5, rejectAll); allocs > 0 {
			t.Errorf("%v: rejecting the frames allocated %.1f times, want 0", mode, allocs)
		}
	}
}

// TestSelectEncoderDeterministic pins the satellite fix for Algorithm 2's
// noise sensitivity: with multi-rep best-of timings and a bandwidth low
// enough that the 1/CR term dominates Eq. (2), the selected mode for a fixed
// sample must be identical across repeated calls.
func TestSelectEncoderDeterministic(t *testing.T) {
	src := benchSample(512, 16)
	first, _, err := SelectEncoder(src, 16, 0.01, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mode, cands, err := SelectEncoder(src, 16, 0.01, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		if mode != first {
			t.Fatalf("call %d selected %v, first call selected %v (cands %+v)", i, mode, first, cands)
		}
	}
}
