// Quickstart: compress one batch of embedding lookups with the hybrid
// error-bounded compressor, inspect the ratio and the reconstruction error,
// compare against the low-precision baselines, and then run a complete
// (tiny) distributed training scenario through the declarative engine.
package main

import (
	"fmt"
	"log"
	"time"

	"dlrmcomp"
)

func main() {
	// A batch of 256 embedding vectors of dimension 32, with hot-key
	// repeats like real DLRM lookups: 16 distinct vectors, Zipf-ish reuse.
	const rows, dim, vocab = 256, 32, 16
	centers := make([][]float32, vocab)
	seed := uint32(12345)
	next := func() float32 {
		seed = seed*1664525 + 1013904223
		return (float32(seed>>8)/float32(1<<24) - 0.5)
	}
	for v := range centers {
		centers[v] = make([]float32, dim)
		for j := range centers[v] {
			centers[v][j] = next()
		}
	}
	batch := make([]float32, 0, rows*dim)
	for r := 0; r < rows; r++ {
		v := int(uint(r*2654435761) % vocab)
		if r%3 != 0 {
			v = v % 4 // hot head
		}
		batch = append(batch, centers[v]...)
	}

	// The paper's compressor with a 0.01 absolute error bound.
	c := dlrmcomp.NewCompressor(0.01, dlrmcomp.ModeAuto)
	frame, err := c.Compress(batch, dim)
	if err != nil {
		log.Fatal(err)
	}
	recon, _, err := c.Decompress(frame)
	if err != nil {
		log.Fatal(err)
	}
	var maxErr float32
	for i := range batch {
		d := recon[i] - batch[i]
		if d < 0 {
			d = -d
		}
		if d > maxErr {
			maxErr = d
		}
	}
	raw := len(batch) * 4
	fmt.Printf("hybrid compressor:  %6d B -> %5d B  (CR %.1fx), max error %.4f (bound 0.01)\n",
		raw, len(frame), float64(raw)/float64(len(frame)), maxErr)

	// Baselines for contrast.
	for _, bc := range []dlrmcomp.Codec{dlrmcomp.NewFP16Codec(), dlrmcomp.NewFP8Codec(), dlrmcomp.NewLZ4LikeCodec()} {
		f, err := bc.CompressAppend(nil, batch, dim)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s  %6d B -> %5d B  (CR %.1fx)\n", bc.Name()+":", raw, len(f),
			float64(raw)/float64(len(f)))
	}

	// Eq. (2): what the ratio buys at 4 GB/s with the paper's GPU codec rates.
	cr := float64(raw) / float64(len(frame))
	fmt.Printf("\nEq.(2) all-to-all speedup at 4 GB/s: %.2fx\n",
		dlrmcomp.Speedup(cr, 4e9, 52e9, 96e9))

	// End-to-end in three lines: a declarative scenario builds the whole
	// simulated cluster (dataset, topology, trainer, codec) from one value.
	// The same JSON shape drives `dlrmtrain -scenario file.json`.
	res, err := dlrmcomp.RunScenario(dlrmcomp.Scenario{
		Dataset: "kaggle", Scale: 4000, Dim: 8, Ranks: 4, Batch: 64, Steps: 10,
		BottomMLP: []int{16, 8}, TopMLP: []int{16, 8},
		Codec: "hybrid", ErrorBound: 0.01,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscenario run: 4 ranks, 10 steps, loss %.4f -> %.4f, CR %.1fx, sim time %v\n",
		res.Losses[0], res.Losses[len(res.Losses)-1], res.CompressionRatio, res.SimTime.Total().Round(time.Microsecond))
}
