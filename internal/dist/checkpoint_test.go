package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dlrmcomp/internal/adapt"
	"dlrmcomp/internal/cluster"
	"dlrmcomp/internal/cluster/tcptransport"
	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/tensor"
)

// stepN drives n steps from gen and returns the per-step losses.
func stepN(t *testing.T, tr *Trainer, gen *criteo.Generator, n int) []float32 {
	t.Helper()
	losses := make([]float32, 0, n)
	for i := 0; i < n; i++ {
		loss, err := tr.Step(gen.NextBatch(32))
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		losses = append(losses, loss)
	}
	return losses
}

// sameBits asserts two loss sequences are bitwise identical.
func sameBits(t *testing.T, label string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d losses vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Errorf("%s: step %d loss %v != %v — not bit-identical", label, i, got[i], want[i])
		}
	}
}

// uniformController returns a controller with obviously-wrong placeholder
// state, so a resume test passes only if restore overwrites it.
func uniformController(tables int) *adapt.Controller {
	base := make([]float32, tables)
	for i := range base {
		base[i] = 0.03
	}
	return &adapt.Controller{BaseEB: base, Schedule: adapt.ScheduleNone, PhaseLen: 0, StartFactor: 1}
}

// TestCheckpointResumeBitParity is the headline guarantee: save at step k,
// restore into a fresh trainer at the same world size, train to step n —
// the losses from k on are bitwise identical to the uninterrupted run.
// Exercised across codecs none/hybrid, 1 and 4 ranks, and (separately)
// with adaptive-controller state restored mid-decay-phase.
func TestCheckpointResumeBitParity(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	const saveAt, total = 3, 6

	cases := []struct {
		name       string
		ranks      int
		compressed bool
		adaptive   bool
	}{
		{"1rank_none", 1, false, false},
		{"1rank_hybrid", 1, true, false},
		{"4ranks_none", 4, false, false},
		{"4ranks_hybrid", 4, true, false},
		{"4ranks_adaptive_middecay", 4, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mkOpts := func(ctrl *adapt.Controller) Options {
				o := Options{Ranks: tc.ranks, Model: cfg}
				if tc.compressed {
					o.CodecFor = func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) }
				}
				if tc.adaptive {
					o.Controller = ctrl
				}
				return o
			}
			var baseCtrl *adapt.Controller
			if tc.adaptive {
				// Mid-decay restore: the phase is longer than the save
				// point, so EBAt depends on the restored iter.
				baseCtrl = uniformController(len(cfg.TableSizes))
				baseCtrl.Schedule = adapt.ScheduleStepwise
				baseCtrl.PhaseLen = total - 1
				baseCtrl.StartFactor = 2
				baseCtrl.BaseEB[0] = 0.05 // non-uniform, so restore is observable
			}

			// Uninterrupted run.
			ctrlA := baseCtrl
			if baseCtrl != nil {
				cp := *baseCtrl
				cp.BaseEB = append([]float32(nil), baseCtrl.BaseEB...)
				ctrlA = &cp
			}
			trA, err := NewTrainer(mkOpts(ctrlA))
			if err != nil {
				t.Fatalf("trainer A: %v", err)
			}
			defer trA.Close()
			genA := criteo.NewGenerator(spec)
			full := stepN(t, trA, genA, total)

			// Interrupted run: train to k, checkpoint, throw the trainer
			// away.
			ctrlB := baseCtrl
			if baseCtrl != nil {
				cp := *baseCtrl
				cp.BaseEB = append([]float32(nil), baseCtrl.BaseEB...)
				ctrlB = &cp
			}
			trB, err := NewTrainer(mkOpts(ctrlB))
			if err != nil {
				t.Fatalf("trainer B: %v", err)
			}
			genB := criteo.NewGenerator(spec)
			head := stepN(t, trB, genB, saveAt)
			sameBits(t, "pre-checkpoint", full[:saveAt], head)
			var ckpt bytes.Buffer
			stats, err := trB.SaveCheckpoint(&ckpt, CheckpointOptions{})
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			if stats.Bytes != int64(ckpt.Len()) {
				t.Fatalf("checkpoint stats report %d bytes, %d were written", stats.Bytes, ckpt.Len())
			}
			trB.Close()

			// Fresh trainer (different init seed + placeholder controller,
			// so only a real restore can reproduce the stream), restored,
			// trained to n.
			cfgC := cfg
			cfgC.Seed = cfg.Seed + 999
			optsC := mkOpts(nil)
			optsC.Model = cfgC
			if tc.adaptive {
				optsC.Controller = uniformController(len(cfg.TableSizes))
			}
			trC, err := NewTrainer(optsC)
			if err != nil {
				t.Fatalf("trainer C: %v", err)
			}
			defer trC.Close()
			if err := trC.RestoreCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if trC.Iter() != saveAt {
				t.Fatalf("restored iter = %d, want %d", trC.Iter(), saveAt)
			}
			genC := criteo.NewGenerator(spec)
			for i := 0; i < saveAt; i++ {
				genC.NextBatch(32) // fast-forward the stream to the save point
			}
			tail := stepN(t, trC, genC, total-saveAt)
			sameBits(t, "resumed", full[saveAt:], tail)

			// The trained models agree too, not just the loss stream.
			evalBatch := criteo.NewGenerator(spec).NextBatch(64)
			accA, llA := trA.Evaluate(evalBatch)
			accC, llC := trC.Evaluate(evalBatch)
			if accA != accC || llA != llC {
				t.Errorf("post-resume eval differs: acc %v/%v logloss %v/%v", accA, accC, llA, llC)
			}
		})
	}
}

// TestCheckpointReshardParity: restoring a checkpoint into a trainer built
// at a different world size redistributes the tables round-robin and
// preserves every weight bit. 4→2 and 2→4.
func TestCheckpointReshardParity(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	for _, tc := range []struct{ from, to int }{{4, 2}, {2, 4}} {
		t.Run(fmt.Sprintf("%dto%d", tc.from, tc.to), func(t *testing.T) {
			trA, err := NewTrainer(Options{Ranks: tc.from, Model: cfg})
			if err != nil {
				t.Fatalf("trainer: %v", err)
			}
			defer trA.Close()
			gen := criteo.NewGenerator(spec)
			stepN(t, trA, gen, 3)
			var ckpt bytes.Buffer
			if _, err := trA.SaveCheckpoint(&ckpt, CheckpointOptions{}); err != nil {
				t.Fatalf("save: %v", err)
			}

			cfgB := cfg
			cfgB.Seed = cfg.Seed + 1 // different init: parity must come from the restore
			trB, err := NewTrainer(Options{Ranks: tc.to, Model: cfgB})
			if err != nil {
				t.Fatalf("resharded trainer: %v", err)
			}
			defer trB.Close()
			if err := trB.RestoreCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatalf("restore: %v", err)
			}

			// Table contents preserved exactly.
			for i, tab := range trA.tmpl.Emb.Tables {
				got := trB.tmpl.Emb.Tables[i].Weights.Data
				for j, v := range tab.Weights.Data {
					if math.Float32bits(got[j]) != math.Float32bits(v) {
						t.Fatalf("table %d element %d: %v != %v after reshard", i, j, got[j], v)
					}
				}
			}
			// Dense replicas preserved and consistent across the new world.
			wantDense := trA.replicas[0].m.DenseParams()
			for r, rp := range trB.replicas {
				for pi, p := range rp.m.DenseParams() {
					for j, v := range wantDense[pi].Value {
						if math.Float32bits(p.Value[j]) != math.Float32bits(v) {
							t.Fatalf("rank %d dense tensor %d element %d differs after reshard", r, pi, j)
						}
					}
				}
			}

			// The reshard plan covers exactly the tables whose round-robin
			// owner changed, and its modelled cost lands in the "reshard"
			// bucket.
			rows := make([]int, len(cfg.TableSizes))
			copy(rows, cfg.TableSizes)
			plan, err := PlanReshard(rows, cfg.EmbeddingDim, tc.from, tc.to)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			wantMoves := 0
			for tb := range rows {
				if tb%tc.from != tb%tc.to {
					wantMoves++
				}
			}
			if len(plan.Moves) != wantMoves || wantMoves == 0 {
				t.Fatalf("plan has %d moves, want %d", len(plan.Moves), wantMoves)
			}
			trB.ChargeReshard(plan)
			if d := trB.Cluster().SimTime("reshard"); d <= 0 {
				t.Errorf("reshard bucket empty after ChargeReshard (plan moved %d bytes)", plan.MovedBytes)
			}

			// The resharded trainer keeps training.
			post := stepN(t, trB, gen, 2)
			for i, l := range post {
				if math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) {
					t.Fatalf("post-reshard step %d loss %v", i, l)
				}
			}
		})
	}
}

// TestCheckpointRejectsMismatch: wrong shapes, wrong magic, and
// controller-presence disagreements are errors, not silent corruption.
func TestCheckpointRejectsMismatch(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	tr, err := NewTrainer(Options{Ranks: 2, Model: cfg})
	if err != nil {
		t.Fatalf("trainer: %v", err)
	}
	defer tr.Close()
	var ckpt bytes.Buffer
	if _, err := tr.SaveCheckpoint(&ckpt, CheckpointOptions{}); err != nil {
		t.Fatalf("save: %v", err)
	}

	wide := cfg
	wide.EmbeddingDim = 16
	trWide, err := NewTrainer(Options{Ranks: 2, Model: wide})
	if err != nil {
		t.Fatalf("wide trainer: %v", err)
	}
	defer trWide.Close()
	if err := trWide.RestoreCheckpoint(bytes.NewReader(ckpt.Bytes())); err == nil || !strings.Contains(err.Error(), "dim") {
		t.Errorf("dim mismatch error = %v", err)
	}

	trCtrl, err := NewTrainer(Options{
		Ranks: 2, Model: cfg,
		CodecFor:   func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) },
		Controller: uniformController(len(cfg.TableSizes)),
	})
	if err != nil {
		t.Fatalf("controller trainer: %v", err)
	}
	defer trCtrl.Close()
	if err := trCtrl.RestoreCheckpoint(bytes.NewReader(ckpt.Bytes())); err == nil || !strings.Contains(err.Error(), "controller") {
		t.Errorf("controller mismatch error = %v", err)
	}

	if err := tr.RestoreCheckpoint(bytes.NewReader([]byte("not a checkpoint at all......."))); err == nil {
		t.Error("garbage restored without error")
	}
}

// TestReadCheckpointDamagedLengthBounded: a real checkpoint whose
// first frame length is damaged to 0xFFFFFFF0 is an error, and reading it
// allocates in proportion to the bytes the stream holds and the shapes it
// declares — not the 4 GiB the damaged length names.
func TestReadCheckpointDamagedLengthBounded(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	tr, err := NewTrainer(Options{Ranks: 2, Model: cfg})
	if err != nil {
		t.Fatalf("trainer: %v", err)
	}
	stepN(t, tr, criteo.NewGenerator(spec), 2)
	var buf bytes.Buffer
	if _, err := tr.SaveCheckpoint(&buf, CheckpointOptions{}); err != nil {
		t.Fatalf("save: %v", err)
	}
	tr.Close()
	ckpt := buf.Bytes()

	// The first frame's length prefix follows the header directly.
	r := bytes.NewReader(ckpt)
	h, err := readCkptHeader(&ckptReader{r: r})
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	at := len(ckpt) - r.Len()
	binary.LittleEndian.PutUint32(ckpt[at:], 0xFFFFFFF0)
	shapes := 0
	for _, n := range h.denseLens {
		shapes += 4 * n
	}
	for _, rows := range h.rows {
		shapes += 4 * rows * h.dim
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ReadCheckpoint(bytes.NewReader(ckpt))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a checkpoint with a damaged frame length was read without error")
	}
	limit := uint64(4*len(ckpt) + shapes)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("reading a %d-byte checkpoint allocated %d bytes, want <= %d (4x the input plus %d bytes of shapes)",
			len(ckpt), got, limit, shapes)
	}

	trR, err := NewTrainer(Options{Ranks: 2, Model: cfg})
	if err != nil {
		t.Fatalf("trainer: %v", err)
	}
	defer trR.Close()
	if err := trR.RestoreCheckpoint(bytes.NewReader(ckpt)); err == nil {
		t.Fatal("a checkpoint with a damaged frame length restored without error")
	}
}

// ckptHeaderBytes hand-builds a DLCK header with the given shape block.
func ckptHeaderBytes(dim uint32, rows, denseLens []uint32) []byte {
	b := append([]byte(nil), ckptMagic[:]...)
	b = append(b, ckptVersion, 0, 0, 0)
	b = append(b, make([]byte, 24)...) // iter, fwdRaw, fwdComp
	b = binary.LittleEndian.AppendUint32(b, dim)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	for _, r := range rows {
		b = binary.LittleEndian.AppendUint32(b, r)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(denseLens)))
	for _, n := range denseLens {
		b = binary.LittleEndian.AppendUint32(b, n)
	}
	return b
}

// TestReadCheckpointDamagedShape: a damaged header or shape block is an
// error that costs a few kilobytes, never a panic or an allocation sized
// from the declared shape.
func TestReadCheckpointDamagedShape(t *testing.T) {
	withByte := func(b []byte, at int, v byte) []byte {
		b[at] = v
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"version 1 header", withByte(ckptHeaderBytes(1, nil, nil), 4, 1), "version 1"},
		{"nonzero reserved byte", withByte(ckptHeaderBytes(1, nil, nil), 5, 1), "reserved"},
		{"nonzero trailing reserved byte", withByte(ckptHeaderBytes(1, nil, nil), 7, 0x80), "reserved"},
		{
			// rows×dim overflows an int: this used to panic in makeslice.
			"rows times dim overflows",
			ckptHeaderBytes(0xFFFFFFFF, []uint32{0xFFFFFFFF}, nil),
			"declares",
		},
		{
			// One 2^28-value dense tensor and its matching raw frame length,
			// then EOF: this used to allocate 1 GiB before the read failed.
			"declared tensor larger than the stream",
			binary.LittleEndian.AppendUint32(ckptHeaderBytes(0, nil, []uint32{1 << 28}), 1<<30),
			"EOF",
		},
		{
			// A frame length that is not four bytes per declared value.
			"frame length off the shape",
			binary.LittleEndian.AppendUint32(ckptHeaderBytes(0, nil, []uint32{4}), 12),
			"want 16",
		},
		{
			// A table count past the format's cap (the header cut after
			// dim), then EOF: refused before a list is sized from it.
			"table count past the cap",
			binary.LittleEndian.AppendUint32(ckptHeaderBytes(1, nil, nil)[:36], ckptMaxEntries+1),
			"past the format",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadCheckpoint(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one containing %q", err, tc.want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Fatalf("reading %d damaged bytes allocated %d bytes", len(tc.data), got)
			}
		})
	}
}

// ckptFrameSpans returns the [start, end) byte span of each weight frame's
// payload in a checkpoint, dense tensors first, then tables.
func ckptFrameSpans(t testing.TB, ckpt []byte) [][2]int {
	t.Helper()
	r := bytes.NewReader(ckpt)
	h, err := readCkptHeader(&ckptReader{r: r})
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	at := len(ckpt) - r.Len()
	spans := make([][2]int, 0, len(h.denseLens)+len(h.rows))
	for range cap(spans) {
		n := int(binary.LittleEndian.Uint32(ckpt[at:]))
		spans = append(spans, [2]int{at + 4, at + 4 + n})
		at += 4 + n + 4
	}
	if at != len(ckpt) {
		t.Fatalf("frames end at byte %d of %d", at, len(ckpt))
	}
	return spans
}

// TestCheckpointFrameCRC: one flipped bit in any frame of a real
// checkpoint is an error from both readers that names the tensor, and
// RestoreCheckpoint leaves that tensor's live weights as they were.
func TestCheckpointFrameCRC(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	tr, err := NewTrainer(Options{Ranks: 2, Model: cfg})
	if err != nil {
		t.Fatalf("trainer: %v", err)
	}
	stepN(t, tr, criteo.NewGenerator(spec), 2)
	var buf bytes.Buffer
	if _, err := tr.SaveCheckpoint(&buf, CheckpointOptions{}); err != nil {
		t.Fatalf("save: %v", err)
	}
	tr.Close()
	ckpt := buf.Bytes()

	cfgR := cfg
	cfgR.Seed = cfg.Seed + 1 // weights that differ from the checkpoint's
	trR, err := NewTrainer(Options{Ranks: 2, Model: cfgR})
	if err != nil {
		t.Fatalf("trainer: %v", err)
	}
	defer trR.Close()
	params := trR.replicas[0].m.DenseParams()
	for i, span := range ckptFrameSpans(t, ckpt) {
		var name string
		var live []float32
		if i < len(params) {
			name, live = fmt.Sprintf("dense tensor %d", i), params[i].Value
		} else {
			tb := i - len(params)
			name, live = fmt.Sprintf("table %d", tb), trR.tmpl.Emb.Tables[tb].Weights.Data
		}
		bad := slices.Clone(ckpt)
		bad[(span[0]+span[1])/2] ^= 1 << (i % 8)
		if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), name+": ") || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("ReadCheckpoint of a flipped bit in %s: got %v", name, err)
		}
		before := slices.Clone(live)
		if err := trR.RestoreCheckpoint(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), name+": ") || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("RestoreCheckpoint of a flipped bit in %s: got %v", name, err)
		}
		if !slices.Equal(math32Bits(before), math32Bits(live)) {
			t.Fatalf("RestoreCheckpoint wrote the damaged %s into the live weights", name)
		}
	}
}

// FuzzReadCheckpoint feeds damaged checkpoints to ReadCheckpoint, seeded
// with real files with and without the adaptive-controller block, and one
// with a flipped weight bit. Properties: no panic; the call allocates at
// most ckptReadAllocBound(len(data)); and either an error or a result
// whose shapes are exactly the header's and whose every tensor is exactly
// the bytes of its frame.
func FuzzReadCheckpoint(f *testing.F) {
	// A tiny model keeps the seeds to a few hundred bytes: the engine
	// minimizes every input that finds coverage, and kilobyte seeds starve
	// a 10-second run.
	cfg := model.Config{
		DenseFeatures: 2, EmbeddingDim: 2, TableSizes: []int{3, 2},
		BottomMLP: []int{2}, TopMLP: []int{2}, Seed: 1,
	}
	for _, ctrl := range []*adapt.Controller{nil, {
		BaseEB: []float32{0.01, 0.02}, Schedule: adapt.ScheduleStepwise, PhaseLen: 4, StartFactor: 2,
	}} {
		opts := Options{Ranks: 1, Model: cfg}
		if ctrl != nil {
			opts.Controller = ctrl
			opts.CodecFor = func(int) codec.Codec { return hybrid.New(0.01, hybrid.Auto) }
		}
		tr, err := NewTrainer(opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.SaveCheckpoint(&buf, CheckpointOptions{}); err != nil {
			f.Fatal(err)
		}
		tr.Close()
		f.Add(buf.Bytes())
		if ctrl != nil {
			bad := slices.Clone(buf.Bytes())
			bad[ckptFrameSpans(f, bad)[0][0]] ^= 1
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, ckptReadAllocBound(len(data)); got > limit {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		d := &ckptReader{r: bytes.NewReader(data)}
		h, err := readCkptHeader(d)
		if err != nil {
			t.Fatalf("ReadCheckpoint accepted a header readCkptHeader rejects: %v", err)
		}
		if ck.Dim != h.dim || !slices.Equal(ck.TableRows, h.rows) || len(ck.Dense) != len(h.denseLens) || len(ck.Tables) != len(h.rows) {
			t.Fatalf("shapes dim=%d rows=%v dense=%d differ from the header's dim=%d rows=%v dense=%v",
				ck.Dim, ck.TableRows, len(ck.Dense), h.dim, h.rows, h.denseLens)
		}
		tensors := append(slices.Clone(ck.Dense), ck.Tables...)
		for i, got := range tensors {
			var want int
			if i < len(h.denseLens) {
				want = h.denseLens[i]
			} else {
				want = h.rows[i-len(h.denseLens)] * h.dim
			}
			if len(got) != want {
				t.Fatalf("tensor %d holds %d values, its shape says %d", i, len(got), want)
			}
			frame := d.frame(int(d.u32()))
			if sum := d.u32(); sum != crc32.ChecksumIEEE(frame) {
				t.Fatalf("tensor %d was read from a frame whose CRC does not match", i)
			}
			dec := make([]float32, want)
			if err := tensor.FloatsFrom(dec, frame); err != nil || !slices.Equal(math32Bits(dec), math32Bits(got)) {
				t.Fatalf("tensor %d is not its frame's bytes (err %v)", i, err)
			}
		}
	})
}

// ckptReadAllocBound is the most ReadCheckpoint may allocate for an n-byte
// stream. The shape block's lists hold at most ckptMaxEntries entries
// each, so they and the tensor list they size cost a constant: 2^16 ×
// (8 B per row count + 8 per dense length + 4 per error bound + 2 × 24 per
// tensor slice header) ≈ 4.3 MiB, under the 8 MiB term. The rest is per
// frame byte. The reused body buffer's capacities at least double, so
// together they total under twice the last one, and the last is under
// 2.5 times the longest frame's delivered bytes (a doubling, plus the
// runtime's rounding up to a size class or page): ≤ 5 per byte. Each
// destination is allocated once, after its frame has arrived whole, at
// 4 bytes per 4-byte value (plus size-class rounding): ≤ 1.25 per byte.
// That is under 6.25 per stream byte; the bound allows 7.
func ckptReadAllocBound(n int) uint64 {
	return 7*uint64(n) + 8<<20
}

// math32Bits returns the bit patterns of v, so NaN payloads compare equal.
func math32Bits(v []float32) []uint32 {
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}

// TestFaultPlanKeepsTrainingMathIdentical: a trainer under jitter and a
// 10x straggler produces bit-identical losses to the healthy run — the
// injector only inflates the simulated clock.
func TestFaultPlanKeepsTrainingMathIdentical(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	run := func(plan *cluster.FaultPlan) ([]float32, map[string]time.Duration) {
		tr, err := NewTrainer(Options{Ranks: 4, Model: cfg, Faults: plan})
		if err != nil {
			t.Fatalf("trainer: %v", err)
		}
		defer tr.Close()
		gen := criteo.NewGenerator(spec)
		return stepN(t, tr, gen, 3), tr.Cluster().SimTimes()
	}
	healthy, healthySim := run(nil)
	faulted, faultedSim := run(&cluster.FaultPlan{
		Seed: 11, Jitter: 0.3,
		Slow: []cluster.SlowRank{{Rank: 2, Factor: 10}},
	})
	sameBits(t, "faulted", healthy, faulted)
	if faultedSim["fwd-a2a"] <= healthySim["fwd-a2a"] {
		t.Errorf("straggler did not inflate fwd-a2a: %v vs %v", faultedSim["fwd-a2a"], healthySim["fwd-a2a"])
	}
}

// TestTrainerCloseIdempotent: Close twice returns the same result, and
// stepping after Close errors instead of panicking.
func TestTrainerCloseIdempotent(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	tr, err := NewTrainer(Options{Ranks: 2, Model: cfg})
	if err != nil {
		t.Fatalf("trainer: %v", err)
	}
	gen := criteo.NewGenerator(spec)
	stepN(t, tr, gen, 1)
	if err := tr.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := tr.Step(gen.NextBatch(32)); err == nil {
		t.Fatal("Step succeeded on a closed trainer")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close after failed step: %v", err)
	}
}

// TestTrainerCloseAfterTransportFailure: when a peer dies mid-run, the
// surviving trainer's Step errors and its Close stays safe — twice.
func TestTrainerCloseAfterTransportFailure(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	ln, addr := reserveLoopbackAddr(t)
	const world = 2
	eps := make([]cluster.Transport, world)
	var dialWG sync.WaitGroup
	dialErrs := make([]error, world)
	for r := 0; r < world; r++ {
		dialWG.Add(1)
		go func(r int) {
			defer dialWG.Done()
			eps[r], dialErrs[r] = tcptransport.Dial(tcptransport.Options{
				Rank: r, World: world, Addr: addr, Listener: ln,
				DialTimeout: 10 * time.Second,
			})
		}(r)
	}
	dialWG.Wait()
	for r, err := range dialErrs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}

	trainers := make([]*Trainer, world)
	for r := 0; r < world; r++ {
		o := Options{Ranks: world, Model: cfg, Transport: eps[r]}
		var err error
		if trainers[r], err = NewTrainer(o); err != nil {
			t.Fatalf("rank %d trainer: %v", r, err)
		}
	}

	// One healthy lockstep step, then rank 1's endpoint dies abruptly.
	gens := []*criteo.Generator{criteo.NewGenerator(spec), criteo.NewGenerator(spec)}
	stepErrs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, stepErrs[r] = trainers[r].Step(gens[r].NextBatch(32))
		}(r)
	}
	wg.Wait()
	for r, err := range stepErrs {
		if err != nil {
			t.Fatalf("healthy step on rank %d: %v", r, err)
		}
	}
	eps[1].(interface{ Kill() }).Kill()

	if _, err := trainers[0].Step(gens[0].NextBatch(32)); err == nil {
		t.Fatal("rank 0 stepped to completion without its peer")
	}
	for r, tr := range trainers {
		first := tr.Close()
		if second := tr.Close(); second != first {
			t.Errorf("rank %d: second close %v != first %v", r, second, first)
		}
	}
}
