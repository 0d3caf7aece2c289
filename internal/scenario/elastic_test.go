package scenario

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"dlrmcomp/internal/cluster"
)

// elasticSpec is a small event-bearing scenario: 4 ranks, rank 1 drops
// before step 2 and rejoins before step 4.
func elasticSpec() Spec {
	sp := tinySpec()
	sp.Steps = 6
	sp.Codec, sp.ErrorBound = "hybrid", 0.02
	sp.Faults = &cluster.FaultPlan{
		Seed:   3,
		Jitter: 0.1,
		Slow:   []cluster.SlowRank{{Rank: 1, Factor: 4}},
		Events: []cluster.FaultEvent{
			{Step: 2, Kind: "drop", Rank: 1},
			{Step: 4, Kind: "rejoin", Rank: 1},
		},
	}
	return sp
}

// TestElasticRunSegments drives a drop/rejoin scenario end to end: the
// loss curve runs straight through both boundaries, each boundary reports
// its reshard (4→3→4), the redistribution lands in the "reshard" sim-time
// bucket, the segments' overlapped clocks sum to a makespan no longer than
// the bucket total, and the whole thing is deterministic.
func TestElasticRunSegments(t *testing.T) {
	res, err := Run(elasticSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 6 {
		t.Fatalf("got %d losses, want 6", len(res.Losses))
	}
	for i, l := range res.Losses {
		if math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) {
			t.Fatalf("loss[%d] = %v", i, l)
		}
	}
	want := []struct{ step, from, to int }{{2, 4, 3}, {4, 3, 4}}
	if len(res.Reshards) != len(want) {
		t.Fatalf("got %d reshards, want %d: %+v", len(res.Reshards), len(want), res.Reshards)
	}
	for i, w := range want {
		r := res.Reshards[i]
		if r.Step != w.step || r.FromRanks != w.from || r.ToRanks != w.to {
			t.Errorf("reshard %d = %+v, want step %d %d→%d", i, r, w.step, w.from, w.to)
		}
		if r.MovedTables <= 0 || r.MovedBytes <= 0 {
			t.Errorf("reshard %d moved nothing: %+v", i, r)
		}
	}
	if res.SimTime["reshard"] <= 0 {
		t.Fatalf("no reshard sim-time charged: %v", res.SimTime)
	}
	if res.SimTime["fwd-a2a-intra"]+res.SimTime["fwd-a2a"] <= 0 {
		t.Fatalf("training sim-time missing: %v", res.SimTime)
	}
	if over := res.OverlappedSimTime; over <= 0 || over > res.SimTime.Total() {
		t.Fatalf("overlapped clock %v outside (0, bucket sum %v]", over, res.SimTime.Total())
	}
	// Two boundary checkpoints, no periodic ones (Checkpoint is unset).
	if res.Checkpoints == nil || res.Checkpoints.Count != 2 {
		t.Fatalf("checkpoint report = %+v, want 2 boundary saves", res.Checkpoints)
	}
	if res.Checkpoints.Bytes <= 0 {
		t.Fatalf("checkpoint accounting empty: %+v", res.Checkpoints)
	}

	// Determinism: an identical elastic run reproduces everything bitwise.
	again, err := Run(elasticSpec())
	if err != nil {
		t.Fatal(err)
	}
	res.WallClock, again.WallClock = 0, 0
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("elastic run is not deterministic:\nfirst  %+v\nsecond %+v", res, again)
	}
}

// TestCheckpointVerifyParity is the scenario-level resume-parity pin: a
// run that checkpoints every 2 steps and restores each checkpoint
// straight back (Verify) must produce bit-identical losses, sim-time and
// overlapped clock to the same run without any checkpointing —
// save/restore is a no-op exactly when it is bit-faithful.
func TestCheckpointVerifyParity(t *testing.T) {
	plain := tinySpec()
	plain.Steps = 6
	plain.Codec, plain.ErrorBound = "hybrid", 0.02

	verified := plain
	verified.Checkpoint = &CheckpointSpec{Every: 2, Verify: true}

	rp, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := Run(verified)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rp.Losses, rv.Losses) {
		t.Fatalf("verified run diverged:\nplain    %v\nverified %v", rp.Losses, rv.Losses)
	}
	if !reflect.DeepEqual(rp.SimTime, rv.SimTime) {
		t.Fatalf("verified run charged different sim-time:\nplain    %v\nverified %v", rp.SimTime, rv.SimTime)
	}
	if rp.OverlappedSimTime <= 0 || rv.OverlappedSimTime != rp.OverlappedSimTime {
		t.Fatalf("verified run's overlapped clock %v != plain %v", rv.OverlappedSimTime, rp.OverlappedSimTime)
	}
	if rv.Checkpoints == nil || rv.Checkpoints.Count != 3 {
		t.Fatalf("checkpoint report = %+v, want 3 periodic saves", rv.Checkpoints)
	}
	if rv.Checkpoints.Bytes <= 0 {
		t.Fatalf("checkpoint accounting broken: %+v", rv.Checkpoints)
	}
}

// TestChaos8Converges runs the committed chaos scenario — 8 ranks, a 10x
// straggler, a drop and a rejoin, adaptive error bounds, periodic
// verified checkpoints — and requires it to actually train: finite
// losses end to end, a falling loss curve, and better-than-chance eval.
func TestChaos8Converges(t *testing.T) {
	sp, err := LoadFile(filepath.Join("..", "..", "examples", "scenarios", "chaos8.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != sp.Steps {
		t.Fatalf("got %d losses, want %d", len(res.Losses), sp.Steps)
	}
	head, tail := 0.0, 0.0
	for i, l := range res.Losses {
		if math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) {
			t.Fatalf("loss[%d] = %v", i, l)
		}
		if i < 10 {
			head += float64(l)
		}
		if i >= len(res.Losses)-10 {
			tail += float64(l)
		}
	}
	if tail >= head {
		t.Fatalf("chaos run is not converging: first-10 loss sum %v, last-10 %v", head, tail)
	}
	if res.Accuracy <= 0.5 {
		t.Fatalf("eval accuracy %v is no better than chance", res.Accuracy)
	}
	if len(res.Reshards) != 2 || res.Reshards[0].FromRanks != 8 || res.Reshards[0].ToRanks != 7 ||
		res.Reshards[1].FromRanks != 7 || res.Reshards[1].ToRanks != 8 {
		t.Fatalf("reshards = %+v, want 8→7 then 7→8", res.Reshards)
	}
	// Six periodic saves (every 10 of 60 steps) plus two boundary saves.
	if res.Checkpoints == nil || res.Checkpoints.Count != 8 {
		t.Fatalf("checkpoint report = %+v, want 8 saves", res.Checkpoints)
	}
	if res.Offline == nil {
		t.Fatal("adaptive chaos run must report its offline classification")
	}
	// The hierarchical topology splits the bucket per link.
	if res.SimTime["reshard-intra"]+res.SimTime["reshard-inter"] <= 0 {
		t.Fatalf("no reshard cost charged: %v", res.SimTime)
	}
}
