package tcptransport

import (
	"fmt"
	"testing"
	"time"

	"dlrmcomp/internal/cluster"
)

// Chaos conformance: a rank killed mid-collective (abrupt connection
// severing, no close notify — a crash, not a shutdown) must turn every
// blocked collective on every surviving rank into a prompt error. No
// deadlocks, no hung barriers, and the survivors' endpoints must keep
// failing fast afterwards. Asserted at 2, 4, and 8 ranks; the race
// detector runs this in CI.
func TestChaosMidCollectiveKill(t *testing.T) {
	for _, world := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("world%d", world), func(t *testing.T) {
			eps := dialGroup(t, world, nil)
			victim := world / 2 // never rank 0, so the star barrier keeps its hub

			// One warm-up collective with everyone present proves the group
			// was healthy before the kill.
			clusters := make([]*cluster.Cluster, world)
			for r, ep := range eps {
				var err error
				if clusters[r], err = cluster.NewOverTransport(ep, nil); err != nil {
					t.Fatalf("rank %d cluster: %v", r, err)
				}
			}
			warm := make(chan error, world)
			for r := range eps {
				go func(r int) {
					clusters[r].Run(func(rk *cluster.Rank) {
						send := make([][]byte, world)
						for i := range send {
							send[i] = []byte{byte(r), byte(i)}
						}
						_, err := rk.IAllToAllV(send, false, "warm", cluster.A2ADirect).Await()
						warm <- err
					})
				}(r)
			}
			for range eps {
				if err := waitErr(t, warm, 10*time.Second, "warm-up collective"); err != nil {
					t.Fatalf("warm-up collective failed: %v", err)
				}
			}

			// Survivors issue the next collective; the victim never joins,
			// so every survivor is blocked on it when the kill lands.
			done := make(chan error, world)
			for r := range eps {
				if r == victim {
					continue
				}
				go func(r int) {
					clusters[r].Run(func(rk *cluster.Rank) {
						send := make([][]byte, world)
						for i := range send {
							send[i] = []byte{byte(r), byte(i), 2}
						}
						_, err := rk.IAllToAllV(send, false, "chaos", cluster.A2ADirect).Await()
						done <- err
					})
				}(r)
			}
			time.Sleep(100 * time.Millisecond) // let the survivors block
			killer, ok := eps[victim].(interface{ Kill() })
			if !ok {
				t.Fatalf("endpoint %T does not expose Kill", eps[victim])
			}
			killer.Kill()

			for i := 0; i < world-1; i++ {
				err := waitErr(t, done, 10*time.Second, "blocked collective after kill")
				if err == nil {
					t.Error("a surviving rank's collective succeeded without the victim")
				}
			}

			// Poisoned endpoints must stay failed — later calls error
			// immediately rather than waiting on a dead peer.
			for r, ep := range eps {
				if r == victim {
					continue
				}
				start := time.Now()
				if err := ep.Barrier(); err == nil {
					t.Errorf("rank %d barrier succeeded on a poisoned endpoint", r)
				}
				if err := ep.Send((r+1)%world, []byte{1}); err == nil {
					t.Errorf("rank %d send succeeded on a poisoned endpoint", r)
				}
				if _, err := ep.Recv(victim); err == nil {
					t.Errorf("rank %d recv from the victim succeeded after the kill", r)
				}
				if el := time.Since(start); el > 2*time.Second {
					t.Errorf("rank %d post-kill calls took %v; poisoned endpoints must fail promptly", r, el)
				}
				// Close after the failure must be safe (and stay safe when
				// repeated) — the trainer teardown path runs it unconditionally.
				ep.Close()
				ep.Close()
			}
			killer.Kill() // idempotent
		})
	}
}

// waitErr pops one result from ch or fails the test after d — a deadlock
// shows up as this timeout, not as a hung test binary.
func waitErr(t *testing.T, ch chan error, d time.Duration, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(d):
		t.Fatalf("timed out after %v waiting for %s (deadlock)", d, what)
		return nil
	}
}
