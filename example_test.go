// Runnable godoc examples for the facade. Each doubles as a test under
// `go test ./...` (the Output comments are checked), so the documented
// entry points cannot rot; TestFacadeExamplesExist pins their presence.
package dlrmcomp_test

import (
	"fmt"
	"math"

	"dlrmcomp"
)

// exampleModel builds a small deterministic DLRM config on the scaled
// Kaggle-like dataset, shared by the trainer examples.
func exampleModel(spec dlrmcomp.DatasetSpec) dlrmcomp.ModelConfig {
	return dlrmcomp.ModelConfig{
		DenseFeatures:     spec.DenseFeatures,
		EmbeddingDim:      8,
		TableSizes:        spec.Cardinalities,
		InitCardinalities: spec.FullCardinalities,
		BottomMLP:         []int{16},
		TopMLP:            []int{16},
		Seed:              spec.Seed,
	}
}

// ExampleCodec compresses one batch of embedding lookups with the hybrid
// error-bounded compressor through the contract every Codec obeys: the
// caller owns the frame buffer and the reconstruction destination and reuses
// both across steps (at steady state the hybrid compressor allocates
// nothing), and the frame decodes to the original shape with every element
// within the error bound.
func ExampleCodec() {
	spec := dlrmcomp.ScaledSpec(dlrmcomp.KaggleSpec(), 100000)
	gen := dlrmcomp.NewGenerator(spec)
	m, err := dlrmcomp.NewModel(exampleModel(spec))
	if err != nil {
		panic(err)
	}
	b := gen.NextBatch(256)
	batch := m.Emb.Tables[0].Lookup(b.Indices[0]).Data // row-major [256 x 8]

	var c dlrmcomp.Codec = dlrmcomp.NewCompressor(0.01, dlrmcomp.ModeAuto)
	var frame []byte                     // reused across steps
	recon := make([]float32, len(batch)) // reused across steps
	var dim int
	for step := 0; step < 3; step++ {
		frame, err = c.CompressAppend(frame[:0], batch, 8)
		if err != nil {
			panic(err)
		}
		if dim, err = c.DecompressInto(recon, frame); err != nil {
			panic(err)
		}
	}
	var maxErr float64
	for i := range batch {
		maxErr = math.Max(maxErr, math.Abs(float64(batch[i]-recon[i])))
	}
	fmt.Println("dim:", dim)
	fmt.Println("within error bound:", maxErr <= 0.01)
	fmt.Println("compresses:", len(frame) < 4*len(batch))
	// Output:
	// dim: 8
	// within error bound: true
	// compresses: true
}

// ExampleCompressor shows the hybrid compressor's convenience pair for
// callers that keep no buffers: Compress returns a fresh frame —
// byte-identical to what CompressAppend appends — and Decompress sizes the
// reconstruction from the frame's own header.
func ExampleCompressor() {
	batch := []float32{0.11, 0.52, -0.31, 0.11, 0.52, -0.31, 0.9, -0.7, 0.25}

	c := dlrmcomp.NewCompressor(0.01, dlrmcomp.ModeAuto)
	frame, err := c.Compress(batch, 3)
	if err != nil {
		panic(err)
	}
	appended, err := c.CompressAppend(nil, batch, 3)
	if err != nil {
		panic(err)
	}
	recon, dim, err := c.Decompress(frame)
	if err != nil {
		panic(err)
	}
	fmt.Println("frames identical:", string(frame) == string(appended))
	fmt.Println("values:", len(recon), "dim:", dim)
	// Output:
	// frames identical: true
	// values: 9 dim: 3
}

// ExampleTrainer_Step runs a few synchronous hybrid-parallel training
// steps across 4 simulated GPUs with the forward all-to-all compressed,
// then checks training made progress and the exchange actually shrank.
func ExampleTrainer_Step() {
	spec := dlrmcomp.ScaledSpec(dlrmcomp.KaggleSpec(), 100000)
	tr, err := dlrmcomp.NewTrainer(dlrmcomp.TrainerOptions{
		Ranks: 4,
		Model: exampleModel(spec),
		CodecFor: func(int) dlrmcomp.Codec {
			return dlrmcomp.NewCompressor(0.01, dlrmcomp.ModeAuto)
		},
	})
	if err != nil {
		panic(err)
	}
	gen := dlrmcomp.NewGenerator(spec)
	var first, last float32
	for i := 0; i < 30; i++ {
		loss, err := tr.Step(gen.NextBatch(64))
		if err != nil {
			panic(err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	fmt.Println("loss decreased:", last < first)
	fmt.Println("compression ratio > 2x:", tr.CompressionRatio() > 2)
	// Output:
	// loss decreased: true
	// compression ratio > 2x: true
}

// ExampleHierarchical shows the two-level topology of the paper's testbed:
// contiguous rank-to-node placement, and the two-phase all-to-all beating
// the direct algorithm once compressed payloads shrink toward the
// slow-link latency floor (fewer, larger NIC messages win).
func ExampleHierarchical() {
	topo := dlrmcomp.PaperHierarchical(4) // 4 GPUs per node
	fmt.Println("nodes for 8 ranks:", topo.Nodes(8))
	fmt.Println("node of rank 5:", topo.NodeOf(5))

	// 32 ranks exchanging small compressed frames (256 B per pair).
	const ranks = 32
	bytes := make([][]int64, ranks)
	for from := range bytes {
		bytes[from] = make([]int64, ranks)
		for to := range bytes[from] {
			if to != from {
				bytes[from][to] = 256
			}
		}
	}
	direct := topo.AllToAllCost(bytes).Total()
	twoPhase := topo.TwoPhaseAllToAllCost(bytes).Total()
	fmt.Println("two-phase beats direct on small frames:", twoPhase < direct)
	// Output:
	// nodes for 8 ranks: 2
	// node of rank 5: 1
	// two-phase beats direct on small frames: true
}

// ExampleTrainer_RunPipelined drives the same training math through the
// comm/compute overlap schedule: the forward all-to-all of batch k+1 is
// pipelined behind the MLP compute of batch k, so the overlapped
// end-to-end time lands strictly below the synchronous schedule while the
// losses stay bit-identical to a Step loop.
func ExampleTrainer_RunPipelined() {
	spec := dlrmcomp.ScaledSpec(dlrmcomp.KaggleSpec(), 100000)
	opts := dlrmcomp.TrainerOptions{
		Ranks:              8,
		Model:              exampleModel(spec),
		Net:                dlrmcomp.PaperHierarchical(4),
		OtherComputeFactor: 0.8,
	}
	overlapped, err := dlrmcomp.NewTrainer(opts)
	if err != nil {
		panic(err)
	}
	sync, err := dlrmcomp.NewTrainer(opts)
	if err != nil {
		panic(err)
	}

	genO := dlrmcomp.NewGenerator(spec)
	genS := dlrmcomp.NewGenerator(spec)
	losses, err := overlapped.RunPipelined(5, func(int) *dlrmcomp.Batch {
		return genO.NextBatch(64)
	})
	if err != nil {
		panic(err)
	}
	identical := true
	for _, want := range losses {
		got, err := sync.Step(genS.NextBatch(64))
		if err != nil {
			panic(err)
		}
		identical = identical && got == want
	}
	fmt.Println("losses identical to synchronous:", identical)
	fmt.Println("overlap strictly faster:",
		overlapped.OverlappedSimTime() < overlapped.SerialSimTime())
	// Output:
	// losses identical to synchronous: true
	// overlap strictly faster: true
}

// ExampleRunScenario runs one declarative scenario end to end: the Spec is
// pure data (it round-trips through JSON and drives `dlrmtrain -scenario`),
// and the engine assembles dataset, topology, codec, and trainer from it.
func ExampleRunScenario() {
	res, err := dlrmcomp.RunScenario(dlrmcomp.Scenario{
		Dataset: "kaggle", Scale: 100000, Dim: 8, Ranks: 8, Batch: 64, Steps: 4,
		Topology: "hier", RanksPerNode: 4,
		BottomMLP: []int{16, 8}, TopMLP: []int{16, 8},
		Codec: "hybrid", ErrorBound: 0.02,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("steps run:", len(res.Losses))
	fmt.Println("compressed beyond 2x:", res.CompressionRatio > 2)
	fmt.Println("hier a2a buckets split:",
		res.SimTime["fwd-a2a-intra"] > 0 && res.SimTime["fwd-a2a-inter"] > 0)
	// Output:
	// steps run: 4
	// compressed beyond 2x: true
	// hier a2a buckets split: true
}
