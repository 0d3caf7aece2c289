package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
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
// Exercised across codecs none/hybrid, 1 and 4 ranks, every checkpoint
// codec, and (separately) with adaptive-controller state restored
// mid-decay-phase.
func TestCheckpointResumeBitParity(t *testing.T) {
	spec := testSpec()
	cfg := testConfig(spec, 8)
	const saveAt, total = 3, 6

	cases := []struct {
		name       string
		ranks      int
		compressed bool
		adaptive   bool
		ckptCodec  string
	}{
		{"1rank_none_lzss", 1, false, false, "lzss"},
		{"1rank_hybrid_lzss", 1, true, false, "lzss"},
		{"4ranks_none_lzss", 4, false, false, "lzss"},
		{"4ranks_hybrid_lzss", 4, true, false, "lzss"},
		{"4ranks_hybrid_raw", 4, true, false, "raw"},
		{"4ranks_hybrid_deflate", 4, true, false, "deflate"},
		{"4ranks_adaptive_middecay", 4, true, true, "lzss"},
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
			stats, err := trB.SaveCheckpoint(&ckpt, CheckpointOptions{Codec: tc.ckptCodec})
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			if stats.RawBytes <= 0 || stats.WireBytes <= 0 {
				t.Fatalf("checkpoint stats not populated: %+v", stats)
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

	if _, err := tr.SaveCheckpoint(&bytes.Buffer{}, CheckpointOptions{Codec: "hybrid"}); err == nil {
		t.Error("a lossy codec name was accepted for a checkpoint")
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

// TestReadCheckpointDamagedLengthBounded: a real deflate checkpoint whose
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
	if _, err := tr.SaveCheckpoint(&buf, CheckpointOptions{Codec: "deflate"}); err != nil {
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
				DialTimeout: 10 * time.Second, HandshakeTimeout: 10 * time.Second,
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
