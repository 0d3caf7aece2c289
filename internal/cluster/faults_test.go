package cluster

import (
	"strings"
	"testing"
	"time"

	"dlrmcomp/internal/netmodel"
)

// runA2ASteps drives n identical fixed-size all-to-alls plus one allreduce
// through an in-process cluster and returns the sim-time buckets.
func runA2ASteps(t *testing.T, ranks, steps int, plan *FaultPlan) map[string]time.Duration {
	t.Helper()
	c := New(ranks, nil)
	defer c.Close()
	if err := c.SetFaultPlan(plan); err != nil {
		t.Fatalf("SetFaultPlan: %v", err)
	}
	for s := 0; s < steps; s++ {
		c.Run(func(r *Rank) {
			send := make([][]byte, ranks)
			for i := range send {
				send[i] = []byte{byte(r.ID), byte(i), byte(s)}
			}
			if _, err := r.AllToAll(send, false, "a2a"); err != nil {
				t.Errorf("rank %d a2a: %v", r.ID, err)
				return
			}
			x := []float32{float32(r.ID), 1}
			if err := r.AllReduceSum(x, "allreduce"); err != nil {
				t.Errorf("rank %d allreduce: %v", r.ID, err)
			}
		})
	}
	return c.SimTimes()
}

func TestFaultPlanScalesSimTime(t *testing.T) {
	base := runA2ASteps(t, 4, 3, nil)
	slow := runA2ASteps(t, 4, 3, &FaultPlan{Slow: []SlowRank{{Rank: 2, Factor: 10}}})
	for _, label := range []string{"a2a", "allreduce"} {
		if base[label] <= 0 {
			t.Fatalf("baseline bucket %q is empty", label)
		}
		if got, want := slow[label], 10*base[label]; got != want {
			t.Errorf("bucket %q with a 10x straggler = %v, want exactly 10x the baseline %v", label, got, base[label])
		}
	}
}

func TestFaultJitterDeterministicAndSeeded(t *testing.T) {
	plan := &FaultPlan{Seed: 42, Jitter: 0.5}
	a := runA2ASteps(t, 4, 4, plan)
	b := runA2ASteps(t, 4, 4, plan)
	for label, d := range a {
		if b[label] != d {
			t.Errorf("bucket %q not reproducible: %v vs %v", label, d, b[label])
		}
	}
	base := runA2ASteps(t, 4, 4, nil)
	if a["a2a"] <= base["a2a"] {
		t.Errorf("jitter did not inflate a2a: %v vs healthy %v", a["a2a"], base["a2a"])
	}
	if a["a2a"] > 2*base["a2a"] {
		t.Errorf("0.5 jitter inflated a2a by more than its bound: %v vs healthy %v", a["a2a"], base["a2a"])
	}
	other := runA2ASteps(t, 4, 4, &FaultPlan{Seed: 43, Jitter: 0.5})
	if other["a2a"] == a["a2a"] {
		t.Errorf("different seeds drew an identical jitter stream (a2a = %v)", a["a2a"])
	}
}

func TestFaultPlanDoesNotChangePayloads(t *testing.T) {
	// The injector scales the clock only; the reduced values must be
	// bit-identical with and without a plan.
	run := func(plan *FaultPlan) []float32 {
		c := New(4, nil)
		defer c.Close()
		if err := c.SetFaultPlan(plan); err != nil {
			t.Fatalf("SetFaultPlan: %v", err)
		}
		out := make([]float32, 4)
		c.Run(func(r *Rank) {
			x := []float32{0.1 * float32(r.ID+1), -1.5, 2.25, float32(r.ID)}
			if err := r.AllReduceSum(x, "allreduce"); err != nil {
				t.Errorf("rank %d: %v", r.ID, err)
				return
			}
			if r.ID == 0 {
				copy(out, x)
			}
		})
		return out
	}
	healthy := run(nil)
	faulted := run(&FaultPlan{Seed: 9, Jitter: 2, Slow: []SlowRank{{Rank: 1, Factor: 100}}})
	for i := range healthy {
		if healthy[i] != faulted[i] {
			t.Fatalf("element %d differs under faults: %v vs %v", i, healthy[i], faulted[i])
		}
	}
}

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
		want string // substring of the error; "" = valid
	}{
		{"healthy", FaultPlan{}, ""},
		{"full", FaultPlan{
			Seed:   7,
			Jitter: 0.2,
			Slow:   []SlowRank{{Rank: 1, Factor: 10}},
			Events: []FaultEvent{{Step: 2, Kind: EventDrop, Rank: 1}, {Step: 3, Kind: EventRejoin, Rank: 1}},
		}, ""},
		{"negative jitter", FaultPlan{Jitter: -0.1}, "jitter"},
		{"huge jitter", FaultPlan{Jitter: 1e9}, "jitter"},
		{"slow rank out of range", FaultPlan{Slow: []SlowRank{{Rank: 4, Factor: 2}}}, "outside world"},
		{"slow factor below one", FaultPlan{Slow: []SlowRank{{Rank: 0, Factor: 0.5}}}, "factor"},
		{"slow rank twice", FaultPlan{Slow: []SlowRank{{Rank: 0, Factor: 2}, {Rank: 0, Factor: 3}}}, "twice"},
		{"event rank out of range", FaultPlan{Events: []FaultEvent{{Step: 1, Kind: EventDrop, Rank: 9}}}, "outside world"},
		{"event step zero", FaultPlan{Events: []FaultEvent{{Step: 0, Kind: EventDrop, Rank: 1}}}, "earliest is 1"},
		{"event past horizon", FaultPlan{Events: []FaultEvent{{Step: 10, Kind: EventDrop, Rank: 1}}}, "past the run"},
		{"events out of order", FaultPlan{Events: []FaultEvent{
			{Step: 3, Kind: EventDrop, Rank: 1}, {Step: 2, Kind: EventDrop, Rank: 2}}}, "out of order"},
		{"double drop", FaultPlan{Events: []FaultEvent{
			{Step: 1, Kind: EventDrop, Rank: 1}, {Step: 2, Kind: EventDrop, Rank: 1}}}, "already down"},
		{"rejoin live rank", FaultPlan{Events: []FaultEvent{{Step: 1, Kind: EventRejoin, Rank: 1}}}, "still up"},
		{"unknown kind", FaultPlan{Events: []FaultEvent{{Step: 1, Kind: "explode", Rank: 1}}}, "kind"},
		{"world empties", FaultPlan{Events: []FaultEvent{
			{Step: 1, Kind: EventDrop, Rank: 0}, {Step: 1, Kind: EventDrop, Rank: 1},
			{Step: 1, Kind: EventDrop, Rank: 2}, {Step: 1, Kind: EventDrop, Rank: 3}}}, "no live ranks"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(4, 5)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestFaultPlanForLive(t *testing.T) {
	plan := &FaultPlan{
		Seed:   3,
		Jitter: 0.1,
		Slow:   []SlowRank{{Rank: 5, Factor: 10}, {Rank: 1, Factor: 2}},
		Events: []FaultEvent{{Step: 2, Kind: EventDrop, Rank: 5}},
	}
	// Rank 5 dropped: survivors 0..4,6,7 renumber to 0..6; original rank 6
	// becomes 5, original 1 keeps its id, the straggler entry disappears.
	seg := plan.ForLive([]int{0, 1, 2, 3, 4, 6, 7})
	if seg == nil {
		t.Fatal("segment plan vanished while jitter is still active")
	}
	if seg.Seed != 3 || seg.Jitter != 0.1 {
		t.Errorf("seed/jitter not carried: %+v", seg)
	}
	if len(seg.Slow) != 1 || seg.Slow[0] != (SlowRank{Rank: 1, Factor: 2}) {
		t.Errorf("remapped slow set = %+v, want only original rank 1 at factor 2", seg.Slow)
	}
	if len(seg.Events) != 0 {
		t.Errorf("events leaked into the segment plan: %+v", seg.Events)
	}

	// A plan whose only activity was the dropped straggler projects to nil.
	only := &FaultPlan{Slow: []SlowRank{{Rank: 5, Factor: 10}}}
	if got := only.ForLive([]int{0, 1, 2, 3, 4, 6, 7}); got != nil {
		t.Errorf("inactive projection = %+v, want nil", got)
	}
	if (*FaultPlan)(nil).ForLive([]int{0}) != nil {
		t.Error("nil plan did not project to nil")
	}
}

func TestSetFaultPlanRejectsInvalid(t *testing.T) {
	c := New(2, nil)
	defer c.Close()
	if err := c.SetFaultPlan(&FaultPlan{Slow: []SlowRank{{Rank: 7, Factor: 2}}}); err == nil {
		t.Fatal("out-of-world slow rank accepted")
	}
	if err := c.SetFaultPlan(&FaultPlan{Jitter: 0.5}); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := c.SetFaultPlan(nil); err != nil {
		t.Fatalf("disarming rejected: %v", err)
	}
}

func TestFaultScaleSplitsAcrossLinks(t *testing.T) {
	// The straggler multiplier applies to both links of a hierarchical
	// all-to-all: each faulted bucket is exactly factor x its healthy
	// counterpart.
	hier := netmodel.PaperHierarchical(2)
	run := func(plan *FaultPlan) map[string]time.Duration {
		c := New(4, hier)
		defer c.Close()
		if err := c.SetFaultPlan(plan); err != nil {
			t.Fatalf("SetFaultPlan: %v", err)
		}
		c.Run(func(r *Rank) {
			send := make([][]byte, 4)
			for i := range send {
				send[i] = make([]byte, 64)
			}
			if _, err := r.AllToAll(send, true, "a2a"); err != nil {
				t.Errorf("rank %d: %v", r.ID, err)
			}
		})
		return c.SimTimes()
	}
	base := run(nil)
	faulted := run(&FaultPlan{Slow: []SlowRank{{Rank: 3, Factor: 4}}})
	if base["a2a-intra"] <= 0 || base["a2a-inter"] <= 0 {
		t.Fatalf("healthy run did not charge both links: %v", base)
	}
	for label, d := range base {
		if got, want := faulted[label], 4*d; got != want {
			t.Errorf("bucket %q = %v, want exactly 4x healthy %v", label, got, d)
		}
	}
}
