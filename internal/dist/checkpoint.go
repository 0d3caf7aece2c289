package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/lz4like"
)

// This file implements checkpoint/restore of the full trainer state: the
// model-parallel embedding shards, one copy of the data-parallel MLP
// parameters (the replicas are bit-identical by construction, so one copy
// restores them all), the adaptive controller's configuration, and the
// step counter + compression accounting. Weight payloads are written
// raw by default, or through codec.Codec's append pair with a *lossless*
// codec (LZSS or DEFLATE on request), so a compressed checkpoint keeps the
// resume-parity guarantee:
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
// Checkpoints capture between-steps state only: SaveCheckpoint on a
// trainer with an in-flight pipelined step (RunPipelined) is the caller's
// bug, and restore resets no overlap-schedule state. The dense optimizer
// is plain SGD (stateless), so no optimizer moments are serialized; the
// format has a flags byte to version that in if an optimizer with state
// ever lands on the dense path.

// Checkpoint wire format (all integers little-endian):
//
//	magic "DLCK" | version u8 | codec u8 | flags u8 | reserved u8
//	iter u64 | fwdRawBytes u64 | fwdCompBytes u64
//	dim u32 | numTables u32 | rows u32 × numTables
//	numDense u32 | len u32 × numDense
//	[flags&ckptHasController] schedule u8 | phaseLen u32 |
//	    startFactor f64 | nEB u32 | baseEB f32 × nEB
//	frame (u32 length | bytes) × numDense, then × numTables
//
// The shape block doubles as a restore-target check: a checkpoint only
// restores into a model of identical dim, table sizes, and dense layer
// shapes (the rank count is deliberately absent — that is what elastic
// restore varies).
const (
	ckptVersion       = 1
	ckptHasController = 1 << 0
)

var ckptMagic = [4]byte{'D', 'L', 'C', 'K'}

// Checkpoint codec ids (the codec byte of the header).
const (
	ckptCodecRaw = iota
	ckptCodecLZSS
	ckptCodecDeflate
)

// DefaultCheckpointCodec is the codec SaveCheckpoint uses when
// CheckpointOptions.Codec is empty. It is raw: on trained float32 tables
// LZ finds almost nothing to match, so lzss writes a slightly larger file
// several times slower.
const DefaultCheckpointCodec = "raw"

// CheckpointCodecs lists the accepted CheckpointOptions.Codec names. All
// are lossless — a lossy checkpoint would silently break the resume
// bit-parity guarantee — so the communication codecs (hybrid, fp16, …)
// are not on the menu.
func CheckpointCodecs() []string { return []string{"raw", "lzss", "deflate"} }

// ckptCodecByName maps a codec name to its header id and instance (nil
// for raw).
func ckptCodecByName(name string) (byte, codec.Codec, error) {
	switch name {
	case "", "raw":
		return ckptCodecRaw, nil, nil
	case "lzss":
		return ckptCodecLZSS, lz4like.LZSSCodec{}, nil
	case "deflate":
		return ckptCodecDeflate, lz4like.DeflateCodec{}, nil
	}
	return 0, nil, fmt.Errorf("dist: unknown checkpoint codec %q (want one of %v)", name, CheckpointCodecs())
}

func ckptCodecByID(id byte) (codec.Codec, error) {
	switch id {
	case ckptCodecRaw:
		return nil, nil
	case ckptCodecLZSS:
		return lz4like.LZSSCodec{}, nil
	case ckptCodecDeflate:
		return lz4like.DeflateCodec{}, nil
	}
	return nil, fmt.Errorf("dist: checkpoint carries unknown codec id %d", id)
}

// CheckpointOptions configures SaveCheckpoint.
type CheckpointOptions struct {
	// Codec names the lossless frame codec ("raw", "lzss", or "deflate");
	// empty means DefaultCheckpointCodec.
	Codec string
}

// CheckpointStats reports what a save moved.
type CheckpointStats struct {
	// RawBytes is the uncompressed footprint of the serialized weights.
	RawBytes int64
	// WireBytes is what the weight frames occupied after the codec
	// (headers and shape metadata excluded; they are a few dozen bytes).
	WireBytes int64
}

// Ratio returns RawBytes/WireBytes (1 when nothing was written).
func (s CheckpointStats) Ratio() float64 {
	if s.WireBytes == 0 {
		return 1
	}
	return float64(s.RawBytes) / float64(s.WireBytes)
}

// SaveCheckpoint serializes the full trainer state to w. It requires
// every rank in-process (like Evaluate): over a distributed transport the
// local process holds fresh state only for its own rank's tables, and a
// checkpoint of half-stale weights is exactly the corruption this check
// exists to prevent.
func (t *Trainer) SaveCheckpoint(w io.Writer, opts CheckpointOptions) (CheckpointStats, error) {
	var stats CheckpointStats
	if t.cl.Distributed() {
		return stats, fmt.Errorf("dist: SaveCheckpoint needs every rank in-process; this trainer hosts %d of %d ranks", len(t.cl.Local()), t.opts.Ranks)
	}
	codecID, cdc, err := ckptCodecByName(opts.Codec)
	if err != nil {
		return stats, err
	}

	var flags byte
	if t.opts.Controller != nil {
		flags |= ckptHasController
	}
	hdr := make([]byte, 0, 256)
	hdr = append(hdr, ckptMagic[:]...)
	hdr = append(hdr, ckptVersion, codecID, flags, 0)
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
		for _, eb := range c.BaseEB {
			hdr = binary.LittleEndian.AppendUint32(hdr, math.Float32bits(eb))
		}
	}
	if _, err := w.Write(hdr); err != nil {
		return stats, err
	}

	frame := make([]byte, 0, 1<<16)
	writeBlob := func(vals []float32, dim int) error {
		if cdc == nil {
			frame = appendFloats(frame[:0], vals)
		} else if frame, err = cdc.CompressAppend(frame[:0], vals, dim); err != nil {
			return err
		}
		var lenHdr [4]byte
		binary.LittleEndian.PutUint32(lenHdr[:], uint32(len(frame)))
		if _, err := w.Write(lenHdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
		stats.RawBytes += int64(4 * len(vals))
		stats.WireBytes += int64(len(frame))
		return nil
	}
	for _, p := range params {
		if err := writeBlob(p.Value, len(p.Value)); err != nil {
			return stats, err
		}
	}
	for _, tab := range tables {
		if err := writeBlob(tab.Weights.Data, tab.Dim); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// ckptHeader is a decoded checkpoint header: everything before the weight
// frames, shared by RestoreCheckpoint (which checks it against a live
// trainer) and ReadCheckpoint (which hands the shapes to the caller).
type ckptHeader struct {
	cdc                   codec.Codec // nil = raw frames
	iter, fwdRaw, fwdComp uint64
	dim                   int
	rows                  []int // per-table row counts
	denseLens             []int // per-dense-tensor value counts
	ctrl                  *adapt.Controller
}

// readCkptHeader decodes the magic, version, codec, accounting, shape
// block, and optional controller block from d.
func readCkptHeader(d *ckptReader) (*ckptHeader, error) {
	var magic [4]byte
	d.bytes(magic[:])
	version, codecID, flags, _ := d.u8(), d.u8(), d.u8(), d.u8()
	if d.err != nil {
		return nil, fmt.Errorf("dist: checkpoint header: %w", d.err)
	}
	if magic != ckptMagic {
		return nil, fmt.Errorf("dist: not a checkpoint (magic %q)", magic[:])
	}
	if version != ckptVersion {
		return nil, fmt.Errorf("dist: checkpoint version %d, this build reads %d", version, ckptVersion)
	}
	cdc, err := ckptCodecByID(codecID)
	if err != nil {
		return nil, err
	}
	h := &ckptHeader{cdc: cdc}
	h.iter = d.u64()
	h.fwdRaw = d.u64()
	h.fwdComp = d.u64()
	h.dim = int(d.u32())
	// The list lengths come off the stream, so the lists grow by append as
	// entries actually arrive rather than being sized from a damaged count.
	for n := d.u32(); uint32(len(h.rows)) < n && d.err == nil; {
		h.rows = append(h.rows, int(d.u32()))
	}
	for n := d.u32(); uint32(len(h.denseLens)) < n && d.err == nil; {
		h.denseLens = append(h.denseLens, int(d.u32()))
	}
	if flags&ckptHasController != 0 {
		h.ctrl = &adapt.Controller{
			Schedule:    adapt.Schedule(d.u8()),
			PhaseLen:    int(d.u32()),
			StartFactor: math.Float64frombits(d.u64()),
		}
		for n := d.u32(); uint32(len(h.ctrl.BaseEB)) < n && d.err == nil; {
			h.ctrl.BaseEB = append(h.ctrl.BaseEB, math.Float32frombits(d.u32()))
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("dist: checkpoint header: %w", d.err)
	}
	return h, nil
}

// readFrame reads one length-prefixed weight frame and decodes it into
// dst through the header's codec.
func (h *ckptHeader) readFrame(d *ckptReader, dst []float32) error {
	n := int(d.u32())
	if d.err != nil {
		return d.err
	}
	if h.cdc == nil && n != 4*len(dst) {
		return fmt.Errorf("dist: raw frame is %d bytes, want %d", n, 4*len(dst))
	}
	frame := d.frame(n)
	if d.err != nil {
		return d.err
	}
	if h.cdc == nil {
		return bytesToFloats(dst, frame)
	}
	if _, err := h.cdc.DecompressInto(dst, frame); err != nil {
		return err
	}
	return nil
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

	// Shape verified; now the payload frames. Reads land directly in the
	// live buffers only after each frame decodes cleanly, so a truncated
	// stream cannot leave the trainer half-restored... except for frames
	// already applied — restore is not transactional across frames, and
	// callers treat a restore error as fatal to the trainer.
	for i, p := range params {
		if err := h.readFrame(d, p.Value); err != nil {
			return fmt.Errorf("dist: checkpoint dense tensor %d: %w", i, err)
		}
	}
	for i, tab := range tables {
		if err := h.readFrame(d, tab.Weights.Data); err != nil {
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
// accepts exactly what SaveCheckpoint writes — same magic, version, codec
// menu, and frame layout as RestoreCheckpoint — but binds to no trainer:
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
		ck.Dense[i] = make([]float32, n)
		if err := h.readFrame(d, ck.Dense[i]); err != nil {
			return nil, fmt.Errorf("dist: checkpoint dense tensor %d: %w", i, err)
		}
	}
	for i, rows := range h.rows {
		ck.Tables[i] = make([]float32, rows*h.dim)
		if err := h.readFrame(d, ck.Tables[i]); err != nil {
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
