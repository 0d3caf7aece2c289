package dist

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/hybrid"
)

// The receive-side tests replay real traffic into rank 1's exchange: a
// 4-rank trainer (hybrid on most tables, raw on every fifth, so the
// forward direction carries both encodings) takes one step, and the fused
// buffers rank 1 received in each direction are kept.
const (
	fixtureRank  = 1
	fixtureBatch = 32
	fixtureDim   = 8
	slotGuard    = 4 // sentinel floats around every slot
)

// slotSentinel (a NaN's bits) fills every float of the fixture arena a
// frame may not write: the guards between slots and the slots that did not
// land.
const slotSentinel uint32 = 0x7fc0dead

type exchangeFixture struct {
	tr    *Trainer
	x     *exchange
	recv  [2][][]byte // [direction][source]; 0 = forward, 1 = backward
	arena []float32   // slot i is arena[slotOff(i):][:len]; the rest is guard
}

func newExchangeFixture(tb testing.TB) *exchangeFixture {
	spec := testSpec()
	tr, err := NewTrainer(Options{
		Ranks: 4,
		Model: testConfig(spec, fixtureDim),
		CodecFor: func(tb int) codec.Codec {
			if tb%5 == 0 {
				return nil
			}
			return hybrid.New(0.01, hybrid.Auto)
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tr.Close() })
	if _, err := tr.Step(criteo.NewGenerator(spec).NextBatch(fixtureBatch)); err != nil {
		tb.Fatal(err)
	}
	f := &exchangeFixture{tr: tr, x: tr.ws[fixtureRank].x}
	for _, ws := range tr.ws {
		f.recv[0] = append(f.recv[0], bytes.Clone(ws.send[fixtureRank]))
		f.recv[1] = append(f.recv[1], bytes.Clone(ws.send2[fixtureRank]))
	}
	f.arena = make([]float32, len(f.x.slots)*(fixtureBatch*fixtureDim+slotGuard)+slotGuard)
	return f
}

func slotOff(i int) int { return slotGuard + i*(fixtureBatch*fixtureDim+slotGuard) }

// expect arms rank 1's exchange for direction dir the way Step does —
// every (table, source) block rank 1 receives, leaving out its self-routes,
// which never cross the wire — over a freshly sentinel-filled arena.
func (f *exchangeFixture) expect(dir int) {
	t, x, r := f.tr, f.x, fixtureRank
	ranks, dim := t.opts.Ranks, t.opts.Model.EmbeddingDim
	count := t.scr.count
	for i := range f.arena {
		f.arena[i] = math.Float32frombits(slotSentinel)
	}
	if dir == 0 {
		x.reset(t.codecs)
	} else {
		x.reset(nil)
	}
	for tb := range len(x.slots) / ranks {
		for src := 0; src < ranks; src++ {
			n := 0
			switch {
			case src == r:
			case dir == 0 && src == t.owner(tb):
				n = count[r] * dim
			case dir == 1 && t.owner(tb) == r:
				n = count[src] * dim
			}
			i := tb*ranks + src
			x.expect(tb, src, f.arena[slotOff(i):][:n])
		}
	}
}

// land replays recv into the armed exchange and returns the first failure.
func (f *exchangeFixture) land(recv [][]byte) error {
	var first error
	f.x.land(recv, func(err error) {
		if first == nil {
			first = err
		}
	})
	return first
}

// checkWrites fails unless every float outside a landed slot still holds
// the sentinel, and reports how many expected slots did not land.
func (f *exchangeFixture) checkWrites(t *testing.T) (missing int) {
	x := f.x
	inLanded := make([]bool, len(f.arena))
	for i, slot := range x.slots {
		if x.got[i] {
			if len(slot) == 0 {
				t.Fatalf("slot %d landed but was not expected", i)
			}
			for k := range slot {
				inLanded[slotOff(i)+k] = true
			}
		} else if len(slot) > 0 {
			missing++
		}
	}
	for k, v := range f.arena {
		if !inLanded[k] && math.Float32bits(v) != slotSentinel {
			t.Fatalf("arena float %d written outside every landed slot", k)
		}
	}
	return missing
}

// TestExchangeReceiveReplay is the positive control: the real buffers of
// both directions land every expected slot, with no error and nothing
// written outside them.
func TestExchangeReceiveReplay(t *testing.T) {
	f := newExchangeFixture(t)
	for dir := range f.recv {
		f.expect(dir)
		if err := f.land(f.recv[dir]); err != nil {
			t.Fatalf("direction %d: %v", dir, err)
		}
		if missing := f.checkWrites(t); missing != 0 {
			t.Fatalf("direction %d: %d expected slots did not land", dir, missing)
		}
	}
}

// TestExchangeReceiveRejects pins the shared receive checks on frames a
// correct peer never sends.
func TestExchangeReceiveRejects(t *testing.T) {
	f := newExchangeFixture(t)
	const src = 2 // owns tables 2, 6, 10, ...; sends rank 1 the gradients of 1, 5, 9, ...
	grad := f.recv[1][src]
	if len(grad) == 0 {
		t.Fatal("fixture: rank 2 sent rank 1 no gradients")
	}
	codecFrame := bytes.Clone(grad)
	codecFrame[4] = encCodec
	cases := []struct {
		name, want string
		buf        []byte
	}{
		{"codec frame for a raw gradient table", "encoding", codecFrame},
		{"gradient frame for a table another rank owns", "expects no", appendFrameFloats(nil, 2, make([]float32, f.tr.scr.count[src]*fixtureDim))},
		{"duplicate frame", "twice", append(bytes.Clone(grad), grad...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f.expect(1)
			recv := append([][]byte(nil), f.recv[1]...)
			recv[src] = tc.buf
			err := f.land(recv)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one containing %q", err, tc.want)
			}
			f.checkWrites(t)
		})
	}
}

// FuzzExchangeReceive feeds damaged fused buffers to rank 1's exchange,
// seeded with the real buffers of both directions: the input replaces what
// one source sent. Properties: no panic; the call allocates no more than a
// small constant (a length field read off the wire never sizes a buffer);
// and, error or not, only expected slots land, a second copy of one is an
// error rather than a second fill, and no float is written outside the
// landed slots. Whether every expected slot arrived is the caller's check,
// as in Step; the replay test pins that real traffic lands them all.
func FuzzExchangeReceive(f *testing.F) {
	fx := newExchangeFixture(f)
	for dir, bufs := range fx.recv {
		for src, buf := range bufs {
			f.Add(uint8(dir), uint8(src), buf)
		}
	}
	f.Fuzz(func(t *testing.T, dir, src uint8, buf []byte) {
		d := int(dir) % 2
		recv := append([][]byte(nil), fx.recv[d]...)
		recv[int(src)%len(recv)] = buf
		fx.expect(d)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fx.land(recv) // an error is an allowed outcome; the writes are checked either way
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
			t.Fatalf("receive allocated %d bytes for a %d-byte buffer", got, len(buf))
		}
		fx.checkWrites(t)
	})
}
