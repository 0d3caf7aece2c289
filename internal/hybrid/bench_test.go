package hybrid

import (
	"testing"

	"dlrmcomp/internal/tensor"
)

// benchSample builds a lookup-like batch: rows drawn from a small pool of
// centers so the vector-LZ stage sees realistic reuse.
func benchSample(rows, dim int) []float32 {
	rng := tensor.NewRNG(11)
	centers := make([][]float32, 64)
	for v := range centers {
		centers[v] = make([]float32, dim)
		rng.FillNormal(centers[v], 0, 0.2)
	}
	out := make([]float32, 0, rows*dim)
	for r := 0; r < rows; r++ {
		out = append(out, centers[rng.Intn(len(centers))]...)
	}
	return out
}

// benchRoundTripBuffered measures the steady-state round trip the trainer
// runs: CompressAppend into a reused frame, DecompressInto a reused batch.
// (Compress wraps the same code plus one make.)
func benchRoundTripBuffered(b *testing.B, mode Mode) {
	b.Helper()
	src := benchSample(2048, 64)
	c := New(0.01, mode)
	var frame []byte
	dst := make([]float32, len(src))
	var err error
	if frame, err = c.CompressAppend(frame[:0], src, 64); err != nil {
		b.Fatal(err)
	}
	if _, err := c.DecompressInto(dst, frame); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if frame, err = c.CompressAppend(frame[:0], src, 64); err != nil {
			b.Fatal(err)
		}
		if _, err := c.DecompressInto(dst, frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripBuffered_Auto(b *testing.B)     { benchRoundTripBuffered(b, Auto) }
func BenchmarkRoundTripBuffered_VectorLZ(b *testing.B) { benchRoundTripBuffered(b, VectorLZ) }
func BenchmarkRoundTripBuffered_Entropy(b *testing.B)  { benchRoundTripBuffered(b, Entropy) }
