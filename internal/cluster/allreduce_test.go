package cluster

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// foldInput is rank's allreduce vector in round: mostly ordinary values,
// with ±0, ±Inf, NaNs of several payloads and denormals of both signs
// mixed in, deterministic in (round, rank, i).
func foldInput(round, rank, n int) []float32 {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc00123), math.Float32frombits(0xffa00001),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), math.Float32frombits(0x00400000),
		math.MaxFloat32, -math.MaxFloat32,
	}
	x := make([]float32, n)
	h := uint64(round)<<40 ^ uint64(rank)<<20 ^ 0x9e3779b97f4a7c15
	for i := range x {
		h ^= h >> 31
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
		if h%5 == 0 {
			x[i] = specials[(h>>8)%uint64(len(specials))]
		} else {
			x[i] = float32(int32(h>>32)) / float32(uint32(1)<<(h>>16%24))
		}
	}
	return x
}

// TestAllReduceFoldBitwise holds AllReduceSum to the naive fold
// s := float32(0); s += x_r over the ranks in order, bit for bit, at
// world sizes and lengths that leave chunks empty, uneven and one
// element long. Each cluster runs two rounds, so the reused scratch is
// exercised. A NaN result need only be a NaN: when two NaNs meet, x86
// keeps the first operand's payload, and Go may commute a float add's
// operands, so the naive loop and the fold can keep different ones (the
// 386 build does).
func TestAllReduceFoldBitwise(t *testing.T) {
	for _, world := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{0, 1, 7, 1000, 4097} {
			t.Run(fmt.Sprintf("N%d_n%d", world, n), func(t *testing.T) {
				c := New(world, testNet())
				defer c.Close()
				c.Run(func(r *Rank) {
					for round := 0; round < 2; round++ {
						want := make([]float32, n)
						for rank := 0; rank < world; rank++ {
							for i, v := range foldInput(round, rank, n) {
								want[i] += v
							}
						}
						x := foldInput(round, r.ID, n)
						if err := r.AllReduceSum(x, "allreduce"); err != nil {
							t.Errorf("rank %d round %d: %v", r.ID, round, err)
							c.Close()
							return
						}
						for i := range x {
							if nan := want[i] != want[i]; nan && x[i] != x[i] {
								continue // which payload survives two NaNs is the compiler's pick
							}
							if math.Float32bits(x[i]) != math.Float32bits(want[i]) {
								t.Errorf("rank %d round %d: x[%d] = %#08x, the naive fold gives %#08x",
									r.ID, round, i, math.Float32bits(x[i]), math.Float32bits(want[i]))
								return
							}
						}
					}
				})
			})
		}
	}
}

// TestGatherAllRagged delivers empty and ragged blobs intact, twice per
// cluster, at one rank and at eight.
func TestGatherAllRagged(t *testing.T) {
	blob := func(round, rank int) []byte {
		return bytes.Repeat([]byte{byte(16*round + rank)}, (rank*7+round*3)%5*rank)
	}
	for _, world := range []int{1, 8} {
		t.Run(fmt.Sprintf("N%d", world), func(t *testing.T) {
			c := New(world, testNet())
			defer c.Close()
			c.Run(func(r *Rank) {
				into := make([][]byte, world)
				for round := 0; round < 2; round++ {
					if err := r.GatherAll(blob(round, r.ID), into); err != nil {
						t.Errorf("rank %d round %d: %v", r.ID, round, err)
						c.Close()
						return
					}
					for from, got := range into {
						if want := blob(round, from); !bytes.Equal(got, want) {
							t.Errorf("rank %d round %d: slot %d holds %x, want %x", r.ID, round, from, got, want)
						}
					}
				}
			})
		})
	}
}
