package tcptransport

import (
	"sync"
	"testing"
)

// TestTransportStatsCounters drives a known frame schedule across a
// 2-rank group and checks the per-peer accounting on both ends: every
// wire frame (payloads and a barrier's empty arrive and release) is
// counted with its header, self-sends never touch the wire, and the two
// endpoints' views of one direction agree exactly.
func TestTransportStatsCounters(t *testing.T) {
	sizes := []int{0, 1, 100, 4096}
	eps := dialGroup(t, 2)

	for seq, size := range sizes {
		if err := eps[0].Send(1, payload(0, 1, seq, size)); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	// A self-send stays in process: it must not appear in any counter.
	if err := eps[0].Send(0, payload(0, 0, 0, 64)); err != nil {
		t.Fatalf("self send: %v", err)
	}
	if _, err := eps[0].Recv(0); err != nil {
		t.Fatalf("self recv: %v", err)
	}
	for seq := range sizes {
		if _, err := eps[1].Recv(0); err != nil {
			t.Fatalf("recv %d: %v", seq, err)
		}
	}
	// One barrier: rank 1 sends an empty arrive frame, rank 0 an empty
	// release frame (header bytes only). Counters are bumped before a
	// frame reaches its inbox, so once both barriers return the counts are
	// settled.
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := barrier(eps[r]); err != nil {
				t.Errorf("rank %d barrier: %v", r, err)
			}
		}(r)
	}
	wg.Wait()

	dataBytes := int64(0)
	for _, size := range sizes {
		dataBytes += int64(frameHeaderBytes + size)
	}
	wantSent := dataBytes + frameHeaderBytes // data frames + barrier release
	wantFrames := int64(len(sizes)) + 1

	stats := func(r int) []PeerStats {
		ins, ok := eps[r].(Instrumented)
		if !ok {
			t.Fatalf("rank %d endpoint does not implement Instrumented", r)
		}
		return ins.TransportStats()
	}
	s0, s1 := stats(0), stats(1)
	if len(s0) != 1 || len(s1) != 1 {
		t.Fatalf("want one peer entry per endpoint in a 2-rank group, got %d and %d", len(s0), len(s1))
	}
	if s0[0].Peer != 1 || s1[0].Peer != 0 {
		t.Fatalf("peer ids: rank 0 sees %d, rank 1 sees %d", s0[0].Peer, s1[0].Peer)
	}
	if s0[0].SentBytes != wantSent || s0[0].SentFrames != wantFrames {
		t.Errorf("rank 0 sent %d bytes in %d frames, want %d in %d", s0[0].SentBytes, s0[0].SentFrames, wantSent, wantFrames)
	}
	if s0[0].RecvBytes != frameHeaderBytes || s0[0].RecvFrames != 1 {
		t.Errorf("rank 0 recv %d bytes in %d frames, want %d in 1 (barrier arrive)", s0[0].RecvBytes, s0[0].RecvFrames, frameHeaderBytes)
	}
	// The two ends of one direction must agree byte for byte.
	if s1[0].RecvBytes != s0[0].SentBytes || s1[0].RecvFrames != s0[0].SentFrames {
		t.Errorf("rank 1 recv (%d B, %d frames) disagrees with rank 0 sent (%d B, %d frames)",
			s1[0].RecvBytes, s1[0].RecvFrames, s0[0].SentBytes, s0[0].SentFrames)
	}
	if s1[0].SentBytes != frameHeaderBytes || s1[0].SentFrames != 1 {
		t.Errorf("rank 1 sent %d bytes in %d frames, want %d in 1 (barrier arrive)", s1[0].SentBytes, s1[0].SentFrames, frameHeaderBytes)
	}
	for _, s := range [][]PeerStats{s0, s1} {
		if s[0].SendMicros < 0 || s[0].RecvMicros < 0 {
			t.Errorf("negative socket time: %+v", s[0])
		}
	}
}
