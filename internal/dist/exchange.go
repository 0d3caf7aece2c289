package dist

import (
	"fmt"
	"time"

	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/tensor"
)

// exchange is one rank's side of an embedding all-to-all, the one path both
// directions of a step take: the forward one moves lookup rows from table
// owners to shard holders through the tables' codecs, and the backward one
// is the same exchange with every codec nil, moving lookup gradients back.
// A caller resets it with the direction's codecs, queues each outgoing
// (table, destination) block with send, names the slot each incoming
// (table, source) block lands in with expect, and calls run.
//
// The exchange owns the wire rules. A self-route skips the frame. Frames
// are fused into one buffer per peer in ascending table order. A failed
// compress falls back to a raw frame (and fails the step). The collective
// is variable-size only when the direction has a codec. A received frame
// must name a table in range and an expected (table, source) slot, only
// once, and may be a codec frame only when its table has a codec. Whether
// every expected block arrived is left to the caller (arrived).
//
// One exchange per rank serves both directions in turn. Its buffers are
// reused across steps and its fan-out bodies are method values bound once,
// so a call allocates nothing in steady state.
type exchange struct {
	t *Trainer
	r int // this rank

	codecs []codec.Codec // per table; nil = every table raw
	out    []block       // queued in ascending (table, destination) order
	frames [][]byte      // [table*ranks+dst] codec frame scratch
	slots  [][]float32   // [table*ranks+src] landing slot; empty = not expected
	got    []bool        // [table*ranks+src] landed this call
	jobs   []block       // received codec frames awaiting decode

	// What the last run moved through a codec: payload bytes before and
	// after compression and the modelled codec time.
	raw, comp      int64
	encode, decode time.Duration

	encodeFn, decodeFn func(k int)
}

// block is one (table, peer) block: outgoing, the floats and, once
// encoded, their codec frame; received, the codec frame and its slot.
type block struct {
	tb, peer int
	vals     []float32
	frame    []byte
	err      error
}

func newExchange(t *Trainer, r, numTables int) *exchange {
	n := numTables * t.opts.Ranks
	x := &exchange{
		t:      t,
		r:      r,
		frames: make([][]byte, n),
		slots:  make([][]float32, n),
		got:    make([]bool, n),
	}
	x.encodeFn, x.decodeFn = x.encodeBlock, x.decodeJob
	return x
}

// reset starts a direction with per-table codecs (nil when none compress).
func (x *exchange) reset(codecs []codec.Codec) {
	x.codecs, x.out = codecs, x.out[:0]
	clear(x.slots)
	clear(x.got)
}

// send queues table tb's block for rank dst; empty blocks are not sent.
func (x *exchange) send(tb, dst int, vals []float32) {
	if len(vals) > 0 {
		x.out = append(x.out, block{tb: tb, peer: dst, vals: vals})
	}
}

// expect names the slot table tb's block from rank src lands in.
func (x *exchange) expect(tb, src int, slot []float32) {
	x.slots[tb*x.t.opts.Ranks+src] = slot
}

// arrived reports whether table tb's block from rank src landed.
func (x *exchange) arrived(tb, src int) bool { return x.got[tb*x.t.opts.Ranks+src] }

// run moves the queued blocks through the op all-to-all over the fused
// send buffers and returns the collective's cost (nonzero on rank 0 only).
// Step-level failures (codec errors, bad frames) go to fail and the
// exchange carries on, keeping the fleet aligned; a transport failure is
// returned.
//
// The all-to-all ends in no barrier, so on the zero-copy in-process fabric
// peers may still be landing frames that alias send when run returns. The
// caller rewrites send only in the next step's run over it, which no rank
// reaches before the step's stats GatherAll, and no rank enters that before
// landing both exchanges. Hence the two directions keep separate send sets.
func (x *exchange) run(rank *cluster.Rank, op string, send [][]byte, fail func(error)) (netmodel.LinkCost, error) {
	x.raw, x.comp, x.encode = 0, 0, 0
	if x.codecs != nil {
		x.t.parallelDo(len(x.out), x.encodeFn)
	}
	for dst := range send {
		send[dst] = send[dst][:0]
	}
	for _, b := range x.out {
		if b.err != nil {
			fail(b.err)
		}
		switch raw := 4 * int64(len(b.vals)); {
		case b.peer == x.r:
			// The forward gathers its own shard in place, so there the
			// block is its slot and the copy moves nothing.
			i := b.tb*x.t.opts.Ranks + x.r
			copy(x.slots[i], b.vals)
			x.got[i] = true
		case b.frame != nil:
			send[b.peer] = append(send[b.peer], b.frame...)
			x.raw += raw
			x.comp += int64(len(b.frame) - frameHeaderBytes)
			x.encode += netmodel.CodecTime(raw, x.t.rates[b.tb].Compress)
		default:
			send[b.peer] = appendFrameFloats(send[b.peer], b.tb, b.vals)
		}
	}

	h := rank.IAllToAllV(send, x.codecs != nil, op, cluster.A2AAuto)
	recv, err := h.Await()
	if err != nil {
		return netmodel.LinkCost{}, err
	}
	x.land(recv, fail)
	return h.Cost(), nil
}

// land parses the buffer received from each source and lands every frame
// in its slot, raw payloads in place and codec frames through the
// parallel decode.
func (x *exchange) land(recv [][]byte, fail func(error)) {
	x.jobs, x.decode = x.jobs[:0], 0
	for src, buf := range recv {
		if err := parseFrames(buf, func(tb int, enc byte, payload []byte) error {
			return x.receive(src, tb, enc, payload)
		}); err != nil {
			fail(err)
		}
	}
	x.t.parallelDo(len(x.jobs), x.decodeFn)
	for _, j := range x.jobs {
		if j.err != nil {
			fail(j.err)
		} else {
			x.decode += netmodel.CodecTime(4*int64(len(j.vals)), x.t.rates[j.tb].Decompress)
		}
	}
}

// receive checks one frame from rank src and lands it: a raw payload is
// decoded in place, a codec frame is queued for decodeJob.
func (x *exchange) receive(src, tb int, enc byte, payload []byte) error {
	if tb < 0 || tb >= len(x.slots)/x.t.opts.Ranks {
		return fmt.Errorf("dist: rank %d got a frame for unknown table %d from rank %d", x.r, tb, src)
	}
	i := tb*x.t.opts.Ranks + src
	switch {
	case len(x.slots[i]) == 0:
		return fmt.Errorf("dist: rank %d expects no table %d frame from rank %d", x.r, tb, src)
	case x.got[i]:
		return fmt.Errorf("dist: rank %d got table %d from rank %d twice", x.r, tb, src)
	}
	x.got[i] = true
	switch {
	case enc == encRaw:
		return tensor.FloatsFrom(x.slots[i], payload)
	case enc == encCodec && x.codecs != nil && x.codecs[tb] != nil:
		x.jobs = append(x.jobs, block{tb: tb, peer: src, vals: x.slots[i], frame: payload})
		return nil
	}
	return fmt.Errorf("dist: rank %d got table %d from rank %d in encoding %d, which its codec does not send", x.r, tb, src, enc)
}

// encodeBlock compresses block k if its table has a codec and it leaves
// the rank; run sends every other block raw.
func (x *exchange) encodeBlock(k int) {
	b := &x.out[k]
	c := x.codecs[b.tb]
	if c == nil || b.peer == x.r {
		return
	}
	i := b.tb*x.t.opts.Ranks + b.peer
	frame, off := appendFrameHeader(x.frames[i][:0], b.tb, encCodec)
	frame, err := c.CompressAppend(frame, b.vals, x.t.opts.Model.EmbeddingDim)
	if err != nil {
		b.err = fmt.Errorf("dist: rank %d table %d compress: %w", x.r, b.tb, err)
		return
	}
	patchFrameLen(frame, off)
	x.frames[i], b.frame = frame, frame
}

// decodeJob reconstructs received codec frame k into its slot.
func (x *exchange) decodeJob(k int) {
	j := &x.jobs[k]
	dim := x.t.opts.Model.EmbeddingDim
	gotDim, err := x.codecs[j.tb].DecompressInto(j.vals, j.frame)
	switch {
	case err != nil:
		j.err = fmt.Errorf("dist: table %d decompress: %w", j.tb, err)
	case gotDim != dim:
		j.err = fmt.Errorf("dist: table %d reconstruction has dim %d, want %d", j.tb, gotDim, dim)
	}
}
