package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"dlrmcomp/internal/netmodel"
)

// payload builds a distinct deterministic buffer for a (collective, from,
// to) triple.
func payload(tag string, from, to int) []byte {
	return []byte(fmt.Sprintf("%s:%d->%d", tag, from, to))
}

// TestAsyncAllToAllDeliveryMatchesSync issues two nonblocking all-to-alls
// back to back, awaits them out of issue order, and checks both delivered
// exactly what the synchronous collective delivers — the "await-before-
// issue ordering" contract: a second collective may be issued before the
// first is awaited, and awaits may complete in any order.
func TestAsyncAllToAllDeliveryMatchesSync(t *testing.T) {
	c := New(8, netmodel.PaperHierarchical(4))
	c.Run(func(r *Rank) {
		mk := func(tag string) [][]byte {
			send := make([][]byte, r.N())
			for to := range send {
				send[to] = payload(tag, r.ID, to)
			}
			return send
		}
		opA := r.IAllToAllV(mk("a"), false, "a2a-a", A2AAuto)
		opB := r.IAllToAllV(mk("b"), true, "a2a-b", A2AAuto)
		// Await out of issue order.
		recvB, errB := opB.Await()
		recvA, errA := opA.Await()
		if errA != nil || errB != nil {
			t.Errorf("rank %d: await errors %v / %v", r.ID, errA, errB)
			return
		}
		for from := 0; from < r.N(); from++ {
			if want := payload("a", from, r.ID); !bytes.Equal(recvA[from], want) {
				t.Errorf("rank %d: op A recv[%d] = %q, want %q", r.ID, from, recvA[from], want)
			}
			if want := payload("b", from, r.ID); !bytes.Equal(recvB[from], want) {
				t.Errorf("rank %d: op B recv[%d] = %q, want %q", r.ID, from, recvB[from], want)
			}
		}
	})
}

// TestAsyncChargeDeferredToAwait pins the handle semantics: data is
// delivered at issue, but the bucket stays empty until Await.
func TestAsyncChargeDeferredToAwait(t *testing.T) {
	c := New(4, testNet())
	c.Run(func(r *Rank) {
		send := make([][]byte, r.N())
		for to := range send {
			send[to] = payload("x", r.ID, to)
		}
		op := r.IAllToAllV(send, false, "deferred", A2AAuto)
		r.Barrier() // all ranks issued; none awaited yet
		if r.ID == 0 {
			if got := c.SimTime("deferred"); got != 0 {
				t.Errorf("bucket charged %v before Await", got)
			}
		}
		r.Barrier()
		op.Await()
		r.Barrier()
		if r.ID == 0 {
			if got := c.SimTime("deferred"); got <= 0 {
				t.Errorf("bucket still %v after Await", got)
			}
		}
	})
}

// TestAsyncAwaitIdempotent checks a double Await returns the same buffers
// and charges the bucket exactly once.
func TestAsyncAwaitIdempotent(t *testing.T) {
	c := New(4, testNet())
	c.Run(func(r *Rank) {
		send := make([][]byte, r.N())
		for to := range send {
			send[to] = payload("x", r.ID, to)
		}
		op := r.IAllToAllV(send, false, "idem", A2AAuto)
		first, err := op.Await()
		if err != nil {
			t.Errorf("rank %d: %v", r.ID, err)
			return
		}
		if !op.Awaited() {
			t.Errorf("rank %d: handle not marked awaited", r.ID)
		}
		again, _ := op.Await()
		for from := range first {
			if !bytes.Equal(first[from], again[from]) {
				t.Errorf("rank %d: second Await returned different payload from %d", r.ID, from)
			}
		}
	})
	once := c.SimTime("idem")
	c.Run(func(r *Rank) {
		send := make([][]byte, r.N())
		for to := range send {
			send[to] = payload("x", r.ID, to)
		}
		r.AllToAll(send, false, "sync")
	})
	if sync := c.SimTime("sync"); once != sync {
		t.Fatalf("double Await charged %v, one sync collective charges %v", once, sync)
	}
}

// TestAsyncCostMatchesSyncCharge checks rank 0's handle cost equals what
// the synchronous path charges for the same payload matrix, including the
// variable-size metadata, and that non-zero costs appear only on rank 0.
func TestAsyncCostMatchesSyncCharge(t *testing.T) {
	topo := netmodel.PaperHierarchical(2)
	c := New(4, topo)
	c.Run(func(r *Rank) {
		send := make([][]byte, r.N())
		for to := range send {
			send[to] = make([]byte, 1024*(r.ID+1))
		}
		op := r.IAllToAllV(send, true, "cost", A2AAuto)
		cost := op.Cost()
		if r.ID != 0 && cost != (netmodel.LinkCost{}) {
			t.Errorf("rank %d carries cost %+v, want zero (rank 0 owns it)", r.ID, cost)
		}
		if r.ID == 0 && cost.Total() <= 0 {
			t.Errorf("rank 0 cost %+v, want positive", cost)
		}
		op.Await()
	})
	charged := c.SimTime("cost-intra") + c.SimTime("cost-inter")
	c2 := New(4, topo)
	c2.Run(func(r *Rank) {
		send := make([][]byte, r.N())
		for to := range send {
			send[to] = make([]byte, 1024*(r.ID+1))
		}
		r.AllToAll(send, true, "cost")
	})
	want := c2.SimTime("cost-intra") + c2.SimTime("cost-inter")
	if charged != want {
		t.Fatalf("async charged %v, sync charges %v", charged, want)
	}
}

// TestAsyncAllReduce checks the nonblocking allreduce delivers the global
// sum at issue and charges only at Await.
func TestAsyncAllReduce(t *testing.T) {
	c := New(8, testNet())
	c.Run(func(r *Rank) {
		x := []float32{float32(r.ID), 1}
		op := r.IAllReduceSum(x, "iar")
		// 0+1+...+7 = 28; the sum is already in x before Await.
		if x[0] != 28 || x[1] != 8 {
			t.Errorf("rank %d: pre-Await sum = %v, want [28 8]", r.ID, x)
		}
		r.Barrier()
		if r.ID == 0 {
			if got := c.SimTime("iar"); got != 0 {
				t.Errorf("allreduce charged %v before Await", got)
			}
		}
		r.Barrier()
		op.Await()
		op.Await() // idempotent
		if r.ID == 0 && op.Cost() <= 0 {
			t.Errorf("rank 0 allreduce cost %v, want positive", op.Cost())
		}
	})
	if got, want := c.SimTime("iar"), testNet().AllReduceTime(8, 8); got != want {
		t.Fatalf("allreduce charged %v, want %v", got, want)
	}
}

// TestAsyncManyInFlightUnderRace issues several overlapping collectives per
// step across repeated steps; with -race this doubles as the async-handle
// race pass (handles are goroutine-local, mailbox reuse is barrier-
// ordered).
func TestAsyncManyInFlightUnderRace(t *testing.T) {
	c := New(8, netmodel.PaperHierarchical(4))
	c.Run(func(r *Rank) {
		for step := 0; step < 5; step++ {
			mk := func(tag string) [][]byte {
				send := make([][]byte, r.N())
				for to := range send {
					send[to] = payload(fmt.Sprintf("%s%d", tag, step), r.ID, to)
				}
				return send
			}
			a := r.IAllToAllV(mk("p"), true, "p", A2AAuto)
			buf := []float32{float32(r.ID)}
			ar := r.IAllReduceSum(buf, "r")
			b := r.IAllToAllV(mk("q"), false, "q", A2AAuto)
			recvQ, err := b.Await()
			if err != nil {
				t.Errorf("step %d rank %d: q await: %v", step, r.ID, err)
				return
			}
			for from, got := range recvQ {
				if want := payload(fmt.Sprintf("q%d", step), from, r.ID); !bytes.Equal(got, want) {
					t.Errorf("step %d rank %d: q recv[%d] = %q, want %q", step, r.ID, from, got, want)
				}
			}
			recvP, err := a.Await()
			if err != nil {
				t.Errorf("step %d rank %d: p await: %v", step, r.ID, err)
				return
			}
			for from, got := range recvP {
				if want := payload(fmt.Sprintf("p%d", step), from, r.ID); !bytes.Equal(got, want) {
					t.Errorf("step %d rank %d: p recv[%d] = %q, want %q", step, r.ID, from, got, want)
				}
			}
			if err := ar.Await(); err != nil {
				t.Errorf("step %d rank %d: allreduce: %v", step, r.ID, err)
				return
			}
			if buf[0] != 28 {
				t.Errorf("step %d rank %d: allreduce sum %v, want 28", step, r.ID, buf[0])
			}
		}
	})
}
