package dist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/tensor"
)

// This file implements checkpoint/restore of the full trainer state: the
// model-parallel embedding shards, one copy of the data-parallel MLP
// parameters (the replicas are bit-identical by construction, so one copy
// restores them all), the adaptive controller's configuration, and the
// step counter + compression accounting. Weights are written raw, as
// little-endian float32 frames, each with a CRC-32, so a checkpoint keeps
// the resume-parity guarantee:
//
//	save at step k → restore into a fresh trainer at the same world
//	size → train on — the losses are bitwise identical to the
//	uninterrupted run.
//
// Restoring at a *different* world size is the elastic-resharding path:
// ownership is positional (owner = table % Ranks), so rebuilding the
// trainer at the new world and restoring the same checkpoint
// redistributes the tables round-robin automatically. PlanReshard (see
// reshard.go) reports which tables move and what the transfer costs.
//
// Checkpoints capture between-steps state only, which is all a trainer
// holds once Step returns. The overlapped clock is accounting, like the
// sim-time buckets: neither is saved, and restore leaves both as they
// were. The dense optimizer
// is plain SGD (stateless), so no optimizer moments are serialized; the
// format has a flags byte to version that in if an optimizer with state
// ever lands on the dense path.

// Checkpoint wire format (all integers little-endian):
//
//	magic "DLCK" | version u8 (2) | reserved u8 (0) | flags u8 | reserved u8 (0)
//	iter u64 | fwdRawBytes u64 | fwdCompBytes u64
//	dim u32 | numTables u32 | rows u32 × numTables
//	numDense u32 | len u32 × numDense
//	[flags&ckptHasController] schedule u8 | phaseLen u32 |
//	    startFactor f64 | nEB u32 | baseEB f32 × nEB
//	frame (u32 length | f32 × length/4 | u32 CRC-32 of the f32 bytes)
//	    × numDense, then × numTables
//
// The shape block doubles as a restore-target check: a checkpoint only
// restores into a model of identical dim, table sizes, and dense layer
// shapes (the rank count is deliberately absent — that is what elastic
// restore varies). A frame's length must be exactly four bytes per value
// its shape declares, and its CRC (IEEE polynomial) must match before any
// of it is decoded, so a flipped bit is an error, never a changed weight.
// Lossy compression never applies here (it would break resume parity),
// and the lossless codecs do not shrink trained float32 weights, so the
// frames carry no codec.
const (
	ckptVersion       = 2
	ckptHasController = 1 << 0

	// ckptMaxEntries caps each list of the shape block (tables, dense
	// tensors, controller error bounds). The counts come off the stream,
	// so the cap is what bounds the lists' memory before their entries
	// arrive; real models have tens of tables.
	ckptMaxEntries = 1 << 16
)

var ckptMagic = [4]byte{'D', 'L', 'C', 'K'}

// CheckpointOptions configures SaveCheckpoint. It has no fields: frames
// are always raw. The type stays because the bench harness passes
// CheckpointOptions{}; ROADMAP.md's bench item drops the parameter with
// the harness's next change.
type CheckpointOptions struct{}

// CheckpointStats reports what a save moved.
type CheckpointStats struct {
	// Bytes is the size of the written checkpoint, header included.
	Bytes int64
}

// SaveCheckpoint serializes the full trainer state to w. It requires
// every rank in-process (like Evaluate): over a distributed transport the
// local process holds fresh state only for its own rank's tables, and a
// checkpoint of half-stale weights is exactly the corruption this check
// exists to prevent.
func (t *Trainer) SaveCheckpoint(w io.Writer, _ CheckpointOptions) (CheckpointStats, error) {
	var stats CheckpointStats
	if t.cl.Distributed() {
		return stats, fmt.Errorf("dist: SaveCheckpoint needs every rank in-process; this trainer hosts %d of %d ranks", len(t.cl.Local()), t.opts.Ranks)
	}

	var flags byte
	if t.opts.Controller != nil {
		flags |= ckptHasController
	}
	hdr := make([]byte, 0, 256)
	hdr = append(hdr, ckptMagic[:]...)
	hdr = append(hdr, ckptVersion, 0, flags, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(t.iter))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(t.fwdRawBytes))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(t.fwdCompBytes))

	tables := t.tmpl.Emb.Tables
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(t.opts.Model.EmbeddingDim))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(tables)))
	for _, tab := range tables {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(tab.NumRows))
	}
	params := t.replicas[0].m.DenseParams()
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(params)))
	for _, p := range params {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(p.Value)))
	}
	if t.opts.Controller != nil {
		c := t.opts.Controller
		hdr = append(hdr, byte(c.Schedule))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(c.PhaseLen))
		hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(c.StartFactor))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(c.BaseEB)))
		hdr = tensor.AppendFloats(hdr, c.BaseEB)
	}
	if _, err := w.Write(hdr); err != nil {
		return stats, err
	}
	stats.Bytes = int64(len(hdr))

	frame := make([]byte, 0, 1<<16)
	writeFrame := func(vals []float32) error {
		frame = binary.LittleEndian.AppendUint32(frame[:0], uint32(4*len(vals)))
		frame = tensor.AppendFloats(frame, vals)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[4:]))
		if _, err := w.Write(frame); err != nil {
			return err
		}
		stats.Bytes += int64(len(frame))
		return nil
	}
	for _, p := range params {
		if err := writeFrame(p.Value); err != nil {
			return stats, err
		}
	}
	for _, tab := range tables {
		if err := writeFrame(tab.Weights.Data); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// ckptHeader is a decoded checkpoint header: everything before the weight
// frames, shared by RestoreCheckpoint (which checks it against a live
// trainer) and ReadCheckpoint (which hands the shapes to the caller).
type ckptHeader struct {
	iter, fwdRaw, fwdComp uint64
	dim                   int
	rows                  []int // per-table row counts
	denseLens             []int // per-dense-tensor value counts
	ctrl                  *adapt.Controller
}

// readCkptHeader decodes the magic, version, accounting, shape block, and
// optional controller block from d.
func readCkptHeader(d *ckptReader) (*ckptHeader, error) {
	var magic [4]byte
	d.bytes(magic[:])
	version, reserved, flags, reserved2 := d.u8(), d.u8(), d.u8(), d.u8()
	if d.err != nil {
		return nil, fmt.Errorf("dist: checkpoint header: %w", d.err)
	}
	if magic != ckptMagic {
		return nil, fmt.Errorf("dist: not a checkpoint (magic %q)", magic[:])
	}
	if version != ckptVersion {
		return nil, fmt.Errorf("dist: checkpoint version %d, this build reads %d", version, ckptVersion)
	}
	if reserved != 0 || reserved2 != 0 {
		return nil, fmt.Errorf("dist: checkpoint header reserved bytes are %d and %d, want 0", reserved, reserved2)
	}
	h := &ckptHeader{}
	h.iter = d.u64()
	h.fwdRaw = d.u64()
	h.fwdComp = d.u64()
	h.dim = int(d.u32())
	h.rows = d.ints()
	h.denseLens = d.ints()
	if flags&ckptHasController != 0 {
		h.ctrl = &adapt.Controller{
			Schedule:    adapt.Schedule(d.u8()),
			PhaseLen:    int(d.u32()),
			StartFactor: math.Float64frombits(d.u64()),
		}
		ebs := d.ints()
		h.ctrl.BaseEB = make([]float32, len(ebs))
		for i, b := range ebs {
			h.ctrl.BaseEB[i] = math.Float32frombits(uint32(b))
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("dist: checkpoint header: %w", d.err)
	}
	return h, nil
}

// readFrame reads the next weight frame, which must hold want values,
// checks its CRC, and decodes it into dst. A nil dst is allocated only
// after the frame's bytes have arrived and passed the check, so a damaged
// shape block costs at most what the stream itself delivers, and a
// damaged frame never reaches dst.
func readFrame(d *ckptReader, want int, dst []float32) ([]float32, error) {
	n := d.u32()
	switch {
	case d.err != nil:
		return nil, d.err
	case uint64(n) != 4*uint64(want):
		return nil, fmt.Errorf("frame is %d bytes, want %d", n, 4*uint64(want))
	}
	frame := d.frame(int(n))
	sum := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if got := crc32.ChecksumIEEE(frame); got != sum {
		return nil, fmt.Errorf("frame CRC is %#08x, its bytes hash to %#08x: damaged", sum, got)
	}
	if dst == nil {
		dst = make([]float32, want)
	}
	return dst, tensor.FloatsFrom(dst, frame)
}

// ckptValues returns the value count of a rows×dim tensor read off the
// shape block, or false when it is negative or its byte size overflows an
// int — a damaged header, never a real model.
func ckptValues(rows, dim int) (int, bool) {
	if rows < 0 || dim < 0 || dim > 0 && rows > math.MaxInt/4/dim {
		return 0, false
	}
	return rows * dim, true
}

// RestoreCheckpoint loads a checkpoint into the trainer, overwriting the
// embedding shards, every MLP replica's parameters (gradients are
// zeroed), the controller configuration, and the step counter. The
// checkpoint's model shape must match the trainer's exactly; its *rank
// count* need not — restoring into a trainer built at a different world
// size is the elastic resharding path, and the round-robin placement
// redistributes the tables as a consequence of positional ownership.
// Requires every rank in-process, like SaveCheckpoint.
func (t *Trainer) RestoreCheckpoint(r io.Reader) error {
	if t.cl.Distributed() {
		return fmt.Errorf("dist: RestoreCheckpoint needs every rank in-process; this trainer hosts %d of %d ranks", len(t.cl.Local()), t.opts.Ranks)
	}
	d := &ckptReader{r: r}
	h, err := readCkptHeader(d)
	if err != nil {
		return err
	}

	tables := t.tmpl.Emb.Tables
	if h.dim != t.opts.Model.EmbeddingDim || len(h.rows) != len(tables) {
		return fmt.Errorf("dist: checkpoint shape dim=%d tables=%d does not match the model's dim=%d tables=%d",
			h.dim, len(h.rows), t.opts.Model.EmbeddingDim, len(tables))
	}
	for i, rows := range h.rows {
		if rows != tables[i].NumRows {
			return fmt.Errorf("dist: checkpoint table %d has %d rows, the model has %d", i, rows, tables[i].NumRows)
		}
	}
	params := t.replicas[0].m.DenseParams()
	if len(h.denseLens) != len(params) {
		return fmt.Errorf("dist: checkpoint carries %d dense tensors, the model has %d", len(h.denseLens), len(params))
	}
	for i, n := range h.denseLens {
		if n != len(params[i].Value) {
			return fmt.Errorf("dist: checkpoint dense tensor %d has %d values, the model has %d", i, n, len(params[i].Value))
		}
	}

	ctrl := h.ctrl
	switch {
	case ctrl != nil && t.opts.Controller == nil:
		return fmt.Errorf("dist: checkpoint carries adaptive controller state but the trainer has no controller")
	case ctrl == nil && t.opts.Controller != nil:
		return fmt.Errorf("dist: the trainer has an adaptive controller but the checkpoint carries no controller state")
	case ctrl != nil && len(ctrl.BaseEB) != len(tables):
		return fmt.Errorf("dist: checkpoint controller covers %d tables, the model has %d", len(ctrl.BaseEB), len(tables))
	}

	// Shape verified; now the payload frames. A frame lands in its live
	// buffer only after all of it has arrived and passed its CRC, so a
	// truncated or damaged stream cannot leave a tensor half-written...
	// but frames already applied stay applied — restore is not
	// transactional across frames, and callers treat a restore error as
	// fatal to the trainer.
	for i, p := range params {
		if _, err := readFrame(d, len(p.Value), p.Value); err != nil {
			return fmt.Errorf("dist: checkpoint dense tensor %d: %w", i, err)
		}
	}
	for i, tab := range tables {
		if _, err := readFrame(d, len(tab.Weights.Data), tab.Weights.Data); err != nil {
			return fmt.Errorf("dist: checkpoint table %d: %w", i, err)
		}
	}

	// Propagate the dense parameters to every replica and zero all
	// gradients — the replicas must leave restore bit-identical, exactly
	// as they leave construction.
	for _, rp := range t.replicas[1:] {
		for i, p := range rp.m.DenseParams() {
			copy(p.Value, params[i].Value)
		}
	}
	for _, rp := range t.replicas {
		rp.m.ZeroGrad()
	}
	if ctrl != nil {
		c := t.opts.Controller
		c.Schedule, c.PhaseLen, c.StartFactor = ctrl.Schedule, ctrl.PhaseLen, ctrl.StartFactor
		copy(c.BaseEB, ctrl.BaseEB)
	}
	t.iter = int(h.iter)
	t.fwdRawBytes = int64(h.fwdRaw)
	t.fwdCompBytes = int64(h.fwdComp)
	return nil
}

// CheckpointData is a checkpoint decoded into plain buffers, shapes and
// all — the train→serve handoff: the serving layer loads embedding shards
// and MLP parameters from a DLCK stream without constructing a trainer
// (and without a transport, controller, or gradient state). Tables[t] is
// the row-major [TableRows[t] × Dim] weight matrix of table t; Dense holds
// the MLP parameter tensors in model.DLRM.DenseParams order.
type CheckpointData struct {
	// Iter is the step count the checkpoint was saved at.
	Iter int
	// Dim is the embedding dimension.
	Dim int
	// TableRows is the per-table row count.
	TableRows []int
	// Dense holds the dense (MLP) parameter tensors, in DenseParams order.
	Dense [][]float32
	// Tables holds the per-table embedding weights, row-major.
	Tables [][]float32
}

// ReadCheckpoint decodes a full checkpoint stream into fresh buffers. It
// accepts exactly what SaveCheckpoint writes — same magic, version, and
// frame layout as RestoreCheckpoint — but binds to no trainer:
// the caller checks the shapes against whatever model it is assembling.
// Checkpoints with an adaptive-controller block load fine; the controller
// configuration is training state and is not surfaced here.
func ReadCheckpoint(r io.Reader) (*CheckpointData, error) {
	d := &ckptReader{r: r}
	h, err := readCkptHeader(d)
	if err != nil {
		return nil, err
	}
	ck := &CheckpointData{
		Iter:      int(h.iter),
		Dim:       h.dim,
		TableRows: h.rows,
		Dense:     make([][]float32, len(h.denseLens)),
		Tables:    make([][]float32, len(h.rows)),
	}
	for i, n := range h.denseLens {
		want, ok := ckptValues(n, 1)
		if !ok {
			return nil, fmt.Errorf("dist: checkpoint dense tensor %d declares %d values", i, n)
		}
		if ck.Dense[i], err = readFrame(d, want, nil); err != nil {
			return nil, fmt.Errorf("dist: checkpoint dense tensor %d: %w", i, err)
		}
	}
	for i, rows := range h.rows {
		want, ok := ckptValues(rows, h.dim)
		if !ok {
			return nil, fmt.Errorf("dist: checkpoint table %d declares %d rows of dim %d", i, rows, h.dim)
		}
		if ck.Tables[i], err = readFrame(d, want, nil); err != nil {
			return nil, fmt.Errorf("dist: checkpoint table %d: %w", i, err)
		}
	}
	return ck, nil
}

// Iter returns how many steps the trainer has taken (restored by
// RestoreCheckpoint, so adaptive decay schedules resume where they left
// off).
func (t *Trainer) Iter() int { return t.iter }

// ckptReader wraps an io.Reader with sticky-error little-endian decoding.
type ckptReader struct {
	r    io.Reader
	err  error
	buf  [8]byte
	body []byte // frame body buffer, reused frame to frame
}

func (d *ckptReader) bytes(p []byte) {
	if d.err != nil {
		return
	}
	_, d.err = io.ReadFull(d.r, p)
}

// ckptFrameChunk is the largest single read of a frame body.
const ckptFrameChunk = 1 << 20

// frame reads an n-byte frame body into d's reused buffer. n comes off the
// stream and may be damaged, so the buffer is never sized from it: it
// grows, at most doubling, only as bytes arrive in reads of at most
// ckptFrameChunk, so its memory stays within about twice what the stream
// actually delivered. The result is valid until the next call.
func (d *ckptReader) frame(n int) []byte {
	buf := d.body[:0]
	for len(buf) < n && d.err == nil {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 4<<10)))
		}
		k := min(n, cap(buf), len(buf)+ckptFrameChunk)
		d.bytes(buf[len(buf):k])
		buf = buf[:k]
	}
	d.body = buf
	return buf
}

// ints reads a u32 count, at most ckptMaxEntries, then that many u32
// entries.
func (d *ckptReader) ints() []int {
	n := d.u32()
	if d.err == nil && n > ckptMaxEntries {
		d.err = fmt.Errorf("a list of %d entries, past the format's %d", n, ckptMaxEntries)
	}
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.u32())
	}
	return out
}

func (d *ckptReader) u8() byte {
	d.bytes(d.buf[:1])
	return d.buf[0]
}

func (d *ckptReader) u32() uint32 {
	d.bytes(d.buf[:4])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(d.buf[:4])
}

func (d *ckptReader) u64() uint64 {
	d.bytes(d.buf[:8])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(d.buf[:8])
}
