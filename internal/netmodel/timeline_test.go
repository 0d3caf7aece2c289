package netmodel

import (
	"testing"
	"time"
)

func TestTimelineSameLinkContentionSerializes(t *testing.T) {
	tl := NewTimeline()
	// Two transfers both ready at 0 on the same link must serialize.
	d1 := tl.Reserve(ResInter, 0, 10*time.Millisecond)
	d2 := tl.Reserve(ResInter, 0, 5*time.Millisecond)
	if d1 != 10*time.Millisecond {
		t.Fatalf("first transfer done at %v, want 10ms", d1)
	}
	if d2 != 15*time.Millisecond {
		t.Fatalf("contending transfer done at %v, want 15ms (serialized after the first)", d2)
	}
	if got := tl.End(); got != 15*time.Millisecond {
		t.Fatalf("makespan %v, want 15ms", got)
	}
}

func TestTimelineDifferentLinksOverlap(t *testing.T) {
	tl := NewTimeline()
	d1 := tl.Reserve(ResInter, 0, 10*time.Millisecond)
	d2 := tl.Reserve(ResIntra, 0, 8*time.Millisecond)
	d3 := tl.Reserve(ResDevice, 0, 6*time.Millisecond)
	if d1 != 10*time.Millisecond || d2 != 8*time.Millisecond || d3 != 6*time.Millisecond {
		t.Fatalf("independent resources serialized: %v %v %v", d1, d2, d3)
	}
	if got := tl.End(); got != 10*time.Millisecond {
		t.Fatalf("makespan %v, want 10ms (slowest lane)", got)
	}
}

func TestTimelineDependencyEdge(t *testing.T) {
	tl := NewTimeline()
	// Work ready only at 20ms starts then even on a free link.
	done := tl.Reserve(ResInter, 20*time.Millisecond, 5*time.Millisecond)
	if done != 25*time.Millisecond {
		t.Fatalf("done at %v, want 25ms", done)
	}
	// A later reservation ready earlier still queues behind it.
	done2 := tl.Reserve(ResInter, 0, time.Millisecond)
	if done2 != 26*time.Millisecond {
		t.Fatalf("done at %v, want 26ms", done2)
	}
}

func TestTimelineZeroCostThreadsDependency(t *testing.T) {
	tl := NewTimeline()
	tl.Reserve(ResIntra, 0, 4*time.Millisecond)
	// Zero cost: returns the effective start without occupying the link.
	start := tl.Reserve(ResIntra, 2*time.Millisecond, 0)
	if start != 4*time.Millisecond {
		t.Fatalf("zero-cost start %v, want 4ms (after busy-until)", start)
	}
	if got := tl.busy[ResIntra]; got != 4*time.Millisecond {
		t.Fatalf("zero-cost reservation moved busy-until to %v", got)
	}
	if got := tl.End(); got != 4*time.Millisecond {
		t.Fatalf("zero-cost reservation moved makespan to %v", got)
	}
}

func TestTimelineReserveLinkCost(t *testing.T) {
	tl := NewTimeline()
	done := tl.ReserveLinkCost(time.Millisecond, LinkCost{
		Intra: 3 * time.Millisecond,
		Inter: 7 * time.Millisecond,
	})
	// Both links start at 1ms and run in parallel; done when both drain.
	if done != 8*time.Millisecond {
		t.Fatalf("link-cost completion %v, want 8ms", done)
	}
	if tl.busy[ResIntra] != 4*time.Millisecond || tl.busy[ResInter] != 8*time.Millisecond {
		t.Fatalf("per-link busy-until %v/%v, want 4ms/8ms",
			tl.busy[ResIntra], tl.busy[ResInter])
	}
	// A second collective contends per link.
	done2 := tl.ReserveLinkCost(0, LinkCost{Intra: time.Millisecond, Inter: time.Millisecond})
	if done2 != 9*time.Millisecond {
		t.Fatalf("second collective done %v, want 9ms (inter lane serializes)", done2)
	}
}
