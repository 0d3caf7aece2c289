package netmodel

import (
	"testing"
	"time"
)

// inter books cost on the inter link alone.
func inter(cost time.Duration) LinkCost { return LinkCost{Inter: cost} }

func TestTimelineSameLinkContentionSerializes(t *testing.T) {
	var tl Timeline
	// Two transfers both ready at 0 on the same link must serialize.
	d1 := tl.ReserveLinkCost(0, inter(10*time.Millisecond))
	d2 := tl.ReserveLinkCost(0, inter(5*time.Millisecond))
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
	var tl Timeline
	d1 := tl.ReserveLinkCost(0, LinkCost{Intra: 8 * time.Millisecond})
	d2 := tl.ReserveLinkCost(0, inter(10*time.Millisecond))
	d3 := tl.ReserveDevice(0, 6*time.Millisecond)
	if d1 != 8*time.Millisecond || d2 != 10*time.Millisecond || d3 != 6*time.Millisecond {
		t.Fatalf("independent lanes serialized: %v %v %v", d1, d2, d3)
	}
	if got := tl.End(); got != 10*time.Millisecond {
		t.Fatalf("makespan %v, want 10ms (slowest lane)", got)
	}
	// A copy is an independent timeline: booking on it leaves tl alone.
	c := tl
	c.ReserveDevice(0, time.Second)
	if tl.End() != 10*time.Millisecond || c.End() != time.Second+6*time.Millisecond {
		t.Fatalf("copy not independent: original %v, copy %v", tl.End(), c.End())
	}
}

func TestTimelineDependencyEdge(t *testing.T) {
	var tl Timeline
	// Work ready only at 20ms starts then even on a free link.
	done := tl.ReserveLinkCost(20*time.Millisecond, inter(5*time.Millisecond))
	if done != 25*time.Millisecond {
		t.Fatalf("done at %v, want 25ms", done)
	}
	// A later reservation ready earlier still queues behind it.
	done2 := tl.ReserveLinkCost(0, inter(time.Millisecond))
	if done2 != 26*time.Millisecond {
		t.Fatalf("done at %v, want 26ms", done2)
	}
}

func TestTimelineZeroCostThreadsDependency(t *testing.T) {
	var tl Timeline
	tl.ReserveLinkCost(0, LinkCost{Intra: 4 * time.Millisecond})
	// Zero cost: returns the effective start without occupying the link.
	start := tl.ReserveLinkCost(2*time.Millisecond, LinkCost{})
	if start != 4*time.Millisecond {
		t.Fatalf("zero-cost start %v, want 4ms (after busy-until)", start)
	}
	if tl.Intra != 4*time.Millisecond || tl.Inter != 0 {
		t.Fatalf("zero-cost reservation moved busy-until to %v/%v", tl.Intra, tl.Inter)
	}
	if got := tl.End(); got != 4*time.Millisecond {
		t.Fatalf("zero-cost reservation moved makespan to %v", got)
	}
}

func TestTimelineReserveLinkCost(t *testing.T) {
	var tl Timeline
	done := tl.ReserveLinkCost(time.Millisecond, LinkCost{
		Intra: 3 * time.Millisecond,
		Inter: 7 * time.Millisecond,
	})
	// Both links start at 1ms and run in parallel; done when both drain.
	if done != 8*time.Millisecond {
		t.Fatalf("link-cost completion %v, want 8ms", done)
	}
	if tl.Intra != 4*time.Millisecond || tl.Inter != 8*time.Millisecond {
		t.Fatalf("per-link busy-until %v/%v, want 4ms/8ms", tl.Intra, tl.Inter)
	}
	// A second collective contends per link.
	done2 := tl.ReserveLinkCost(0, LinkCost{Intra: time.Millisecond, Inter: time.Millisecond})
	if done2 != 9*time.Millisecond {
		t.Fatalf("second collective done %v, want 9ms (inter lane serializes)", done2)
	}
}
