package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dlrmcomp/internal/cluster"
)

// The fuzz layer polices two scenario-engine contracts:
//
//   - FuzzSpecRoundTrip: any JSON the loader accepts survives
//     marshal→load→marshal unchanged, and a Validate-clean spec resolves
//     to a spec that is itself Validate-clean and a Resolved fixed point.
//     This is the drift detector for the declarative surface — a field
//     rename, a default that Resolved fills inconsistently, or a
//     validation rule Resolved can violate all land here.
//
//   - FuzzSpecBuild: any Validate-clean spec (clamped to a tiny budget)
//     must actually build and train two steps without an error or a
//     panic, producing finite losses and an overlapped clock inside
//     (0, bucket sum] — Validate's documented contract ("nil means Build
//     will accept the spec") checked by brute force, elastic/checkpoint
//     paths included.
//
// Corpus policy (see CONTRIBUTING.md): seeds live in code (f.Add) and in
// the committed example scenarios; crashers that CI finds are uploaded as
// artifacts and, once fixed, their inputs are added as f.Add seeds so the
// regression stays pinned.

// addScenarioSeeds feeds every committed example scenario into the corpus.
func addScenarioSeeds(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no committed scenarios to seed from (err %v)", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
}

func FuzzSpecRoundTrip(f *testing.F) {
	addScenarioSeeds(f)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"steps": 10, "faults": {"jitter": 0.5, "slow": [{"rank": 0, "factor": 2}]}}`))
	f.Add([]byte(`{"checkpoint": {"every": 3, "verify": true}}`))
	f.Add([]byte(`{"serve": {"shards": 2, "codec": "quant", "quant_eb": 0.02, "hot_bytes": -1}}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var s Spec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if dec.Decode(&s) != nil {
			t.Skip("not a spec")
		}
		m1, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		var s2 Spec
		dec = json.NewDecoder(bytes.NewReader(m1))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s2); err != nil {
			t.Fatalf("own marshal does not load back: %v\n%s", err, m1)
		}
		m2, err := json.Marshal(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("marshal→load→marshal changed the spec:\nfirst  %s\nsecond %s", m1, m2)
		}

		if s.Validate() != nil {
			return
		}
		rs, err := s.Resolved()
		if err != nil {
			t.Fatalf("Validate passed but Resolved failed: %v\nspec %s", err, m1)
		}
		if err := rs.Validate(); err != nil {
			t.Fatalf("resolved spec fails its own validation: %v\nspec %s", err, m1)
		}
		rs2, err := rs.Resolved()
		if err != nil {
			t.Fatalf("resolved spec does not re-resolve: %v", err)
		}
		r1, _ := json.Marshal(rs)
		r2, _ := json.Marshal(rs2)
		if !bytes.Equal(r1, r2) {
			t.Fatalf("Resolved is not a fixed point:\nonce  %s\ntwice %s", r1, r2)
		}
	})
}

// fuzzSpec clamps raw fuzz inputs into a budget-bounded Spec: tiny tables
// (scale ≥ 4000), at most 8 ranks, 2 steps, small batches. The clamps
// steer toward Validate-clean specs without hiding any resolve/build
// logic — combinations the clamps cannot reconcile are skipped by the
// Validate gate in FuzzSpecBuild.
func fuzzSpec(terabyte bool, scale uint16, dim, ranks, batch uint8, codecIdx uint8, eb float64,
	adaptive, uniform, hier bool, schedIdx uint8, jitter float64, slowRank uint8, slowFactor float64,
	withEvents bool, every uint8, verify bool) Spec {

	codecs := []string{"", "none", "hybrid", "vector", "fp16", "lz4"}
	scheds := []string{"", "none", "stepwise", "linear"}

	s := Spec{
		Dataset:   "kaggle",
		Scale:     4000 + int(scale)%4000,
		Dim:       int(dim) % 17, // 0 = default 16
		Ranks:     1 + int(ranks)%8,
		Steps:     2,
		BottomMLP: []int{16, 8},
		TopMLP:    []int{16, 8},
		Codec:     codecs[int(codecIdx)%len(codecs)],
		Adaptive:  adaptive,
	}
	if terabyte {
		s.Dataset = "terabyte"
	}
	s.Batch = s.Ranks + int(batch)%64
	if hier {
		s.Topology = "hier"
	}
	if s.Adaptive {
		s.Codec = "hybrid" // adaptive needs an error-bounded codec
		s.Schedule = scheds[int(schedIdx)%len(scheds)]
		s.OfflineBatch = 16
		if uniform {
			s.Classes = "uniform"
		}
	}
	if errorBounded(s.Codec) {
		s.ErrorBound = 0.001 + math.Abs(math.Mod(eb, 0.1))
	}

	var fp cluster.FaultPlan
	if j := math.Abs(math.Mod(jitter, 2)); j > 0 {
		fp.Jitter = j
	}
	if slowFactor != 0 {
		fp.Slow = []cluster.SlowRank{{
			Rank:   int(slowRank) % s.Ranks,
			Factor: 1 + math.Abs(math.Mod(slowFactor, 100)),
		}}
	}
	if withEvents && s.Ranks >= 2 {
		// Steps is 2, so the only legal event step is 1.
		fp.Events = []cluster.FaultEvent{{Step: 1, Kind: "drop", Rank: int(slowRank+1) % s.Ranks}}
	}
	if fp.Active() || len(fp.Events) > 0 {
		s.Faults = &fp
	}
	if every%3 != 0 {
		s.Checkpoint = &CheckpointSpec{
			Every:  int(every) % 3,
			Verify: verify,
		}
	}
	return s
}

func FuzzSpecBuild(f *testing.F) {
	// One seed per committed scenario shape, translated into the clamped
	// argument tuple, plus hand seeds covering the elastic and checkpoint
	// paths.
	f.Add(false, uint16(0), uint8(0), uint8(4), uint8(32), uint8(1), 0.0,
		false, false, false, uint8(0), 0.0, uint8(0), 0.0, false, uint8(0), false)
	f.Add(false, uint16(100), uint8(8), uint8(8), uint8(60), uint8(2), 0.02,
		true, false, true, uint8(2), 0.2, uint8(5), 10.0, true, uint8(1), true)
	f.Add(true, uint16(999), uint8(16), uint8(2), uint8(16), uint8(4), 0.0,
		false, false, false, uint8(0), 0.0, uint8(0), 0.0, false, uint8(0), false)
	f.Add(false, uint16(7), uint8(4), uint8(3), uint8(9), uint8(5), 0.0,
		false, true, false, uint8(1), 1.5, uint8(1), 3.0, true, uint8(2), false)

	f.Fuzz(func(t *testing.T, terabyte bool, scale uint16, dim, ranks, batch uint8, codecIdx uint8, eb float64,
		adaptive, uniform, hier bool, schedIdx uint8, jitter float64, slowRank uint8, slowFactor float64,
		withEvents bool, every uint8, verify bool) {

		s := fuzzSpec(terabyte, scale, dim, ranks, batch, codecIdx, eb,
			adaptive, uniform, hier, schedIdx, jitter, slowRank, slowFactor,
			withEvents, every, verify)
		if s.Validate() != nil {
			t.Skip("clamps could not reconcile this combination")
		}
		res, err := Run(s)
		if err != nil {
			m, _ := json.Marshal(s)
			t.Fatalf("Validate-clean spec failed to run: %v\nspec %s", err, m)
		}
		if len(res.Losses) != s.Steps {
			t.Fatalf("got %d losses, want %d", len(res.Losses), s.Steps)
		}
		for i, l := range res.Losses {
			if math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) {
				m, _ := json.Marshal(s)
				t.Fatalf("loss[%d] = %v\nspec %s", i, l, m)
			}
		}
		// The overlapped clock books the very costs the buckets sum, so it
		// can hide some of them but never exceed their total.
		if over := res.OverlappedSimTime; over <= 0 || over > res.SimTime.Total() {
			m, _ := json.Marshal(s)
			t.Fatalf("overlapped clock %v outside (0, bucket sum %v]\nspec %s", over, res.SimTime.Total(), m)
		}
	})
}
