package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dlrmcomp/internal/cluster"
)

// fullSpec exercises every field once, for the JSON golden.
func fullSpec() Spec {
	return Spec{
		Name:               "golden",
		Dataset:            "terabyte",
		Scale:              4000,
		Dim:                32,
		Batch:              512,
		Steps:              10,
		Eval:               1000,
		Ranks:              8,
		Nodes:              2,
		RanksPerNode:       4,
		Topology:           "hier",
		A2A:                "twophase",
		Transport:          "inproc", // Overlap below; a tcp spec cannot overlap
		Codec:              "hybrid",
		ErrorBound:         0.02,
		CodecWorkers:       2,
		ComputeWorkers:     4,
		Adaptive:           true,
		Classes:            "offline",
		Schedule:           "stepwise",
		DecayPhase:         5,
		DecayFactor:        2,
		OfflineBatch:       256,
		OfflineEB:          0.005,
		Overlap:            true,
		BottomMLP:          []int{64, 32},
		TopMLP:             []int{64, 32},
		Device:             "paper",
		OtherComputeFactor: 0.8,
		Seed:               7,
		ModelSeed:          9,
		WarmSteps:          4,
		// Overlap above conflicts with events and checkpoints, so fullSpec
		// is marshal-complete but not Validate-clean; tests that resolve it
		// clear Overlap first.
		Faults: &cluster.FaultPlan{
			Seed:   11,
			Jitter: 0.25,
			Slow:   []cluster.SlowRank{{Rank: 5, Factor: 10}},
			Events: []cluster.FaultEvent{
				{Step: 4, Kind: "drop", Rank: 5},
				{Step: 8, Kind: "rejoin", Rank: 5},
			},
		},
		Checkpoint: &CheckpointSpec{Every: 5, Codec: "lzss", Verify: true},
		Serve: &ServeSpec{
			Shards: 2, Codec: "quant", QuantEB: 0.02, BlockRows: 32,
			HotBytes: 1 << 20, MaxBatch: 32,
			QueueDepth: 256, Workers: 2, Requests: 5000, Clients: 8,
		},
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want []string // substrings of the joined error; empty = valid
	}{
		{"zero value is valid", Spec{}, nil},
		{"plain flat run", Spec{Dataset: "kaggle", Ranks: 8, Steps: 10, Codec: "hybrid", ErrorBound: 0.02}, nil},
		{"hier with nodes", Spec{Topology: "hier", Nodes: 2, RanksPerNode: 4}, nil},
		{"consistent ranks and nodes", Spec{Topology: "hier", Ranks: 8, Nodes: 2, RanksPerNode: 4}, nil},
		{"unknown dataset", Spec{Dataset: "movielens"}, []string{"unknown dataset"}},
		{"unknown codec", Spec{Codec: "zstd"}, []string{"unknown codec"}},
		{"tcp transport", Spec{Transport: "tcp", Ranks: 4, Steps: 5}, nil},
		{"unknown transport", Spec{Transport: "mpi"}, []string{"unknown transport"}},
		{"tcp cannot overlap", Spec{Transport: "tcp", Overlap: true}, []string{"transport tcp cannot overlap"}},
		{"tcp cannot eval", Spec{Transport: "tcp", Eval: 100}, []string{"transport tcp cannot eval"}},
		{"unknown topology", Spec{Topology: "torus"}, []string{"unknown topology"}},
		{"unknown a2a", Spec{A2A: "ring"}, []string{"all-to-all algorithm"}},
		{"unknown schedule", Spec{Schedule: "cosine"}, []string{"decay schedule"}},
		{"unknown device", Spec{Device: "h100"}, []string{"unknown device"}},
		{"unknown classes", Spec{Classes: "manual"}, []string{"unknown classes"}},
		{"negative steps", Spec{Steps: -1}, []string{"steps must be >= 0"}},
		{"negative eb", Spec{ErrorBound: -0.1}, []string{"eb must be >= 0"}},
		{"negative compute workers", Spec{ComputeWorkers: -1}, []string{"compute_workers must be >= 0"}},
		{"pinned compute workers", Spec{ComputeWorkers: 8}, nil},
		{"fractional decay factor", Spec{DecayFactor: 0.5}, []string{"decay_factor"}},
		{
			"ranks inconsistent with nodes (the old silent override)",
			Spec{Topology: "hier", Ranks: 8, Nodes: 8, RanksPerNode: 4},
			[]string{"ranks 8 is inconsistent with nodes 8 × ranks_per_node 4"},
		},
		{
			"hier pinned to one node",
			Spec{Topology: "hier", Nodes: 1},
			[]string{"nodes=1"},
		},
		{
			// The degenerate intra-only baseline the scaling sweep uses.
			"hier that merely fits in one node stays legal",
			Spec{Topology: "hier", Ranks: 4, RanksPerNode: 4},
			nil,
		},
		{"nodes on flat topology", Spec{Nodes: 2}, []string{"requires topology=hier"}},
		{"batch below ranks", Spec{Ranks: 64, Batch: 32}, []string{"smaller than the 64 ranks"}},
		{
			// Validate must mean what it says: nil == Build will accept.
			"default batch below ranks",
			Spec{Dataset: "kaggle", Ranks: 256},
			[]string{"default batch 128", "set batch explicitly"},
		},
		{"error-bounded codec without eb", Spec{Codec: "hybrid"}, []string{"set eb > 0"}},
		{"adaptive without codec", Spec{Adaptive: true}, []string{"adaptive error bounds need a codec"}},
		{"adaptive with fixed-rate codec", Spec{Adaptive: true, Codec: "fp16"}, []string{"error-bounded codec"}},
		{"adaptive hybrid needs no eb", Spec{Adaptive: true, Codec: "hybrid"}, nil},
		{
			"faults with straggler and events",
			Spec{Ranks: 8, Steps: 40, Faults: &cluster.FaultPlan{
				Jitter: 0.2,
				Slow:   []cluster.SlowRank{{Rank: 5, Factor: 10}},
				Events: []cluster.FaultEvent{{Step: 20, Kind: "drop", Rank: 5}, {Step: 30, Kind: "rejoin", Rank: 5}},
			}},
			nil,
		},
		{
			"slow rank outside the world",
			Spec{Ranks: 4, Faults: &cluster.FaultPlan{Slow: []cluster.SlowRank{{Rank: 7, Factor: 2}}}},
			[]string{"slow rank 7 outside world of 4"},
		},
		{
			"fault event at or past the run's steps",
			Spec{Ranks: 4, Steps: 10, Faults: &cluster.FaultPlan{Events: []cluster.FaultEvent{{Step: 10, Kind: "drop", Rank: 1}}}},
			[]string{"at or past the run's 10 steps"},
		},
		{
			"fault events over tcp",
			Spec{Transport: "tcp", Ranks: 4, Steps: 10, Faults: &cluster.FaultPlan{Events: []cluster.FaultEvent{{Step: 5, Kind: "drop", Rank: 1}}}},
			[]string{"fault events need the in-process transport"},
		},
		{
			"fault events under overlap",
			Spec{Overlap: true, Ranks: 4, Steps: 10, Faults: &cluster.FaultPlan{Events: []cluster.FaultEvent{{Step: 5, Kind: "drop", Rank: 1}}}},
			[]string{"fault events cannot overlap"},
		},
		{
			"jitter and stragglers alone are fine under tcp and overlap",
			Spec{Transport: "tcp", Ranks: 4, Steps: 10, Faults: &cluster.FaultPlan{Jitter: 0.1, Slow: []cluster.SlowRank{{Rank: 2, Factor: 3}}}},
			nil,
		},
		{"checkpointed run", Spec{Steps: 10, Checkpoint: &CheckpointSpec{Every: 5, Verify: true}}, nil},
		{
			"checkpoint codec must be lossless",
			Spec{Checkpoint: &CheckpointSpec{Codec: "hybrid"}},
			[]string{"unknown checkpoint codec"},
		},
		{
			"negative checkpoint cadence",
			Spec{Checkpoint: &CheckpointSpec{Every: -1}},
			[]string{"checkpoint every must be >= 0"},
		},
		{
			"checkpoints over tcp",
			Spec{Transport: "tcp", Checkpoint: &CheckpointSpec{Every: 5}},
			[]string{"checkpoints need the in-process transport"},
		},
		{
			"checkpoints under overlap",
			Spec{Overlap: true, Checkpoint: &CheckpointSpec{Every: 5}},
			[]string{"checkpoints cannot overlap"},
		},
		{"served run", Spec{Steps: 10, Serve: &ServeSpec{Codec: "lzss", Shards: 4}}, nil},
		{"served run with quant", Spec{Serve: &ServeSpec{Codec: "quant", QuantEB: 0.01}}, nil},
		{"served run with disabled cache", Spec{Serve: &ServeSpec{HotBytes: -1}}, nil},
		{
			"unknown serve codec",
			Spec{Serve: &ServeSpec{Codec: "zstd"}},
			[]string{"unknown serve codec"},
		},
		{
			"serve quant without eb",
			Spec{Serve: &ServeSpec{Codec: "quant"}},
			[]string{"set quant_eb > 0"},
		},
		{
			"serve eb without quant",
			Spec{Serve: &ServeSpec{Codec: "lzss", QuantEB: 0.01}},
			[]string{"does not quantize"},
		},
		{
			"negative serve knobs",
			Spec{Serve: &ServeSpec{Shards: -1, Workers: -2}},
			[]string{"serve shards must be >= 0", "serve workers must be >= 0"},
		},
		{
			"multiple errors reported together",
			Spec{Dataset: "movielens", Codec: "zstd", Steps: -3, Ranks: 8, Nodes: 4, RanksPerNode: 8, Topology: "hier"},
			[]string{"unknown dataset", "unknown codec", "steps must be >= 0", "inconsistent"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("want valid, got: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error missing %q:\n%v", sub, err)
				}
			}
		})
	}
}

func TestResolvedDefaults(t *testing.T) {
	rs, err := Spec{Steps: 10}.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Dataset: "kaggle", Dim: 16, Steps: 10, Ranks: 8, RanksPerNode: 4,
		Topology: "flat", A2A: "auto", Transport: "inproc", Codec: "none", Device: "a100",
		Batch:     128, // kaggle default, already a multiple of 8
		BottomMLP: []int{64, 32}, TopMLP: []int{64, 32},
	}
	if !reflect.DeepEqual(rs, want) {
		t.Fatalf("defaults:\ngot  %+v\nwant %+v", rs, want)
	}
}

func TestResolvedNodesProductAndRounding(t *testing.T) {
	rs, err := Spec{Topology: "hier", Nodes: 3, RanksPerNode: 4, Batch: 130, Steps: 1}.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Ranks != 12 {
		t.Fatalf("ranks = %d, want 12 (nodes×ranks_per_node)", rs.Ranks)
	}
	if rs.Batch != 120 {
		t.Fatalf("batch = %d, want 120 (rounded down to a multiple of 12)", rs.Batch)
	}
}

func TestResolvedAdaptiveDefaults(t *testing.T) {
	rs, err := Spec{Adaptive: true, Codec: "hybrid", Steps: 100}.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Classes != "offline" || rs.Schedule != "stepwise" || rs.DecayFactor != 2 || rs.DecayPhase != 50 {
		t.Fatalf("adaptive defaults: %+v", rs)
	}
	if rs.OfflineBatch != 128 {
		t.Fatalf("offline_batch = %d, want the dataset default 128", rs.OfflineBatch)
	}
	// A non-decaying schedule defaults to factor 1 and no phase.
	rs2, err := Spec{Adaptive: true, Codec: "hybrid", Schedule: "none", Steps: 100}.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if rs2.DecayFactor != 1 || rs2.DecayPhase != 0 {
		t.Fatalf("schedule=none defaults: factor %v phase %d", rs2.DecayFactor, rs2.DecayPhase)
	}
}

func TestResolvedCheckpointCodecDefault(t *testing.T) {
	orig := Spec{Steps: 10, Checkpoint: &CheckpointSpec{Every: 5}}
	rs, err := orig.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Checkpoint.Codec != "raw" {
		t.Fatalf("checkpoint codec = %q, want the raw default", rs.Checkpoint.Codec)
	}
	if orig.Checkpoint.Codec != "" {
		t.Fatal("Resolved mutated the caller's Checkpoint through the shared pointer")
	}
}

func TestResolvedServeCodecDefault(t *testing.T) {
	orig := Spec{Steps: 10, Serve: &ServeSpec{Shards: 2}}
	rs, err := orig.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Serve.Codec != "raw" {
		t.Fatalf("serve codec = %q, want the raw default", rs.Serve.Codec)
	}
	if orig.Serve.Codec != "" {
		t.Fatal("Resolved mutated the caller's Serve through the shared pointer")
	}
	opts := rs.ServeOptions()
	if opts.Shards != 2 || opts.ColdCodec != "raw" {
		t.Fatalf("ServeOptions = %+v, want shards 2 with the raw codec", opts)
	}
}

func TestResolvedIdempotent(t *testing.T) {
	// fullSpec combines overlap with fault events and checkpoints, which
	// Validate rejects (it exists for the JSON golden); resolve the
	// un-overlapped variant.
	s := fullSpec()
	s.Overlap = false
	rs, err := s.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := rs.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, rs2) {
		t.Fatalf("Resolved not idempotent:\nonce  %+v\ntwice %+v", rs, rs2)
	}
}

// TestSpecJSONGolden pins the wire format: the full Spec marshals to the
// committed golden and the golden unmarshals back to the same Spec, so a
// field rename cannot silently orphan every committed scenario file.
func TestSpecJSONGolden(t *testing.T) {
	got, err := json.MarshalIndent(fullSpec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "spec.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Fatalf("Spec JSON drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
	var back Spec
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, fullSpec()) {
		t.Fatalf("round trip changed the spec:\ngot  %+v\nwant %+v", back, fullSpec())
	}
}

func TestLoadFileRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"dataset": "kaggle", "eror_bound": 0.02}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("typoed field must fail loudly, got: %v", err)
	}
}

// TestCommittedScenarioFiles keeps every example scenario loadable and
// valid, and pins hier8_hybrid.json to the flag invocation it documents
// (`dlrmtrain -topology hier -nodes 2 -ranks-per-node 4 -steps 40 -codec
// hybrid -eb 0.02`): equal Specs build equal trainers, so the JSON and the
// flags reproduce each other bit-for-bit.
func TestCommittedScenarioFiles(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed scenarios under %s (err %v)", dir, err)
	}
	for _, f := range files {
		s, err := LoadFile(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", f, err)
		}
	}

	s, err := LoadFile(filepath.Join(dir, "hier8_hybrid.json"))
	if err != nil {
		t.Fatal(err)
	}
	flags := Spec{
		Name: "hier8-hybrid", Dataset: "kaggle", Scale: 400, Dim: 16,
		Steps: 40, Eval: 4000, Nodes: 2, RanksPerNode: 4, Topology: "hier",
		Codec: "hybrid", ErrorBound: 0.02,
	}
	if !reflect.DeepEqual(s, flags) {
		t.Fatalf("hier8_hybrid.json no longer matches its documented flag invocation:\nfile  %+v\nflags %+v", s, flags)
	}
}
