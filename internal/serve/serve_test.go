package serve

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/nn"
	"dlrmcomp/internal/tensor"
)

func testSpec() criteo.Spec { return criteo.ScaledSpec(criteo.KaggleSpec(), 100000) }

func testConfig(spec criteo.Spec, dim int) model.Config {
	return model.Config{
		DenseFeatures:     spec.DenseFeatures,
		EmbeddingDim:      dim,
		TableSizes:        spec.Cardinalities,
		InitCardinalities: spec.FullCardinalities,
		BottomMLP:         []int{16},
		TopMLP:            []int{16},
		Seed:              spec.Seed,
	}
}

// trainedCheckpoint trains a small 2-rank model for a few steps and returns
// its config plus the serialized DLCK checkpoint — the artifact the serving
// layer loads.
func trainedCheckpoint(t testing.TB, ckptCodec string) (model.Config, []byte) {
	t.Helper()
	spec := testSpec()
	cfg := testConfig(spec, 8)
	tr, err := dist.NewTrainer(dist.Options{Ranks: 2, Model: cfg})
	if err != nil {
		t.Fatalf("NewTrainer: %v", err)
	}
	defer tr.Close()
	gen := criteo.NewGenerator(spec)
	for i := 0; i < 4; i++ {
		if _, err := tr.Step(gen.NextBatch(32)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if _, err := tr.SaveCheckpoint(&buf, dist.CheckpointOptions{Codec: ckptCodec}); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	return cfg, buf.Bytes()
}

// referenceModel reconstructs a plain in-memory DLRM from a checkpoint, the
// same way newServer does, so tests can score against uncompressed,
// uncached, unsharded ground truth.
func referenceModel(t testing.TB, cfg model.Config, ckpt []byte) *model.DLRM {
	t.Helper()
	ck, err := dist.ReadCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	m, err := model.New(cfg)
	if err != nil {
		t.Fatalf("model.New: %v", err)
	}
	for i, p := range m.DenseParams() {
		if len(ck.Dense[i]) != len(p.Value) {
			t.Fatalf("dense tensor %d: %d values vs %d", i, len(ck.Dense[i]), len(p.Value))
		}
		copy(p.Value, ck.Dense[i])
	}
	for tb, tab := range m.Emb.Tables {
		if len(ck.Tables[tb]) != len(tab.Weights.Data) {
			t.Fatalf("table %d: %d values vs %d", tb, len(ck.Tables[tb]), len(tab.Weights.Data))
		}
		copy(tab.Weights.Data, ck.Tables[tb])
	}
	m.SetComputeWorkers(1)
	return m
}

// requestStream pre-generates n Zipf-skewed requests from the dataset
// generator (which draws indices per-table with the spec's skew).
func requestStream(spec criteo.Spec, n int) []*criteo.Batch {
	gen := criteo.NewGenerator(spec)
	reqs := make([]*criteo.Batch, n)
	for i := range reqs {
		reqs[i] = gen.NextBatch(1)
	}
	return reqs
}

// refScores runs requests through the reference model and returns sigmoid
// scores.
func refScores(m *model.DLRM, reqs []*criteo.Batch) []float32 {
	out := make([]float32, len(reqs))
	for i, r := range reqs {
		logits := m.Forward(r.Dense, r.Indices)
		out[i] = nn.Sigmoid(logits.At(0, 0))
	}
	return out
}

// TestServeParity is the headline serving guarantee: for every lossless
// cold codec, with and without the hot cache, across shard counts, the
// served score of every request is bit-identical to the reference model
// rebuilt from the same checkpoint — compression and caching never change
// a score. The quant codec is checked for bounded divergence instead.
func TestServeParity(t *testing.T) {
	spec := testSpec()
	cfg, ckpt := trainedCheckpoint(t, "lzss")
	ref := referenceModel(t, cfg, ckpt)
	reqs := requestStream(spec, 200)
	want := refScores(ref, reqs)

	cases := []struct {
		name string
		opts Options
	}{
		{"raw_uncached", Options{ColdCodec: "raw", HotBytes: -1}},
		{"raw_cached", Options{ColdCodec: "raw"}},
		{"lzss_cached", Options{ColdCodec: "lzss"}},
		{"deflate_cached", Options{ColdCodec: "deflate", Shards: 3}},
		{"lzss_tiny_cache_4shards", Options{ColdCodec: "lzss", Shards: 4, HotBytes: 4096, BlockRows: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(cfg, bytes.NewReader(ckpt), tc.opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer srv.Close()
			out := make([]float32, 1)
			for i, r := range reqs {
				if err := srv.ScoreBatch(r.Dense, r.Indices, out); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if math.Float32bits(out[0]) != math.Float32bits(want[i]) {
					t.Fatalf("request %d: served %v != reference %v — not bit-identical", i, out[0], want[i])
				}
			}
		})
	}

	t.Run("quant_bounded", func(t *testing.T) {
		const eb = 0.01
		srv, err := New(cfg, bytes.NewReader(ckpt), Options{ColdCodec: "quant", QuantEB: eb})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer srv.Close()
		out := make([]float32, 1)
		var maxDelta float64
		for i, r := range reqs {
			if err := srv.ScoreBatch(r.Dense, r.Indices, out); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if d := math.Abs(float64(out[0] - want[i])); d > maxDelta {
				maxDelta = d
			}
		}
		// Sigmoid output deltas stay small for a 0.01 embedding error
		// bound on this model; 0.05 is generous headroom, and the real
		// assertion is "close but allowed to differ".
		if maxDelta > 0.05 {
			t.Fatalf("quant scores drifted %.4f from reference, want <= 0.05", maxDelta)
		}
		if st := srv.Stats(); st.ColdRatio() < 3 {
			t.Fatalf("quant cold tier compresses %.2fx, want >= 3x", st.ColdRatio())
		}
	})
}

// TestServeCachedMatchesUncachedQuant pins the hit≡miss invariant for the
// lossy codec too: because the cache stores decoded rows, a cached quant
// server and an uncached quant server serve bit-identical scores.
func TestServeCachedMatchesUncachedQuant(t *testing.T) {
	spec := testSpec()
	cfg, ckpt := trainedCheckpoint(t, "raw")
	reqs := requestStream(spec, 200)

	mk := func(hotBytes int64) []float32 {
		srv, err := New(cfg, bytes.NewReader(ckpt), Options{ColdCodec: "quant", QuantEB: 0.02, HotBytes: hotBytes})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer srv.Close()
		out := make([]float32, 1)
		scores := make([]float32, len(reqs))
		for i, r := range reqs {
			if err := srv.ScoreBatch(r.Dense, r.Indices, out); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			scores[i] = out[0]
		}
		return scores
	}
	cached, uncached := mk(0), mk(-1)
	for i := range cached {
		if math.Float32bits(cached[i]) != math.Float32bits(uncached[i]) {
			t.Fatalf("request %d: cached %v != uncached %v", i, cached[i], uncached[i])
		}
	}
}

// TestServeHitRate drives the default-sized cache with the generator's
// Zipf-skewed traffic and checks the skew does its job: after warmup the
// hot tier absorbs at least 90% of row lookups.
func TestServeHitRate(t *testing.T) {
	spec := testSpec()
	cfg, ckpt := trainedCheckpoint(t, "lzss")
	srv, err := New(cfg, bytes.NewReader(ckpt), Options{ColdCodec: "lzss"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	gen := criteo.NewGenerator(spec)
	out := make([]float32, 32)
	// Warm the cache, then measure steady state.
	for i := 0; i < 40; i++ {
		b := gen.NextBatch(32)
		if err := srv.ScoreBatch(b.Dense, b.Indices, out); err != nil {
			t.Fatalf("warm batch %d: %v", i, err)
		}
	}
	before := srv.Stats()
	for i := 0; i < 60; i++ {
		b := gen.NextBatch(32)
		if err := srv.ScoreBatch(b.Dense, b.Indices, out); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	after := srv.Stats()
	steady := Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	if hr := steady.HitRate(); hr < 0.90 {
		t.Fatalf("steady-state hit rate %.3f, want >= 0.90 (hits=%d misses=%d)", hr, steady.Hits, steady.Misses)
	}
	if after.HotBytes > cfgRawBytes(cfg)/4 {
		t.Fatalf("hot cache resident %d bytes exceeds the %d budget", after.HotBytes, cfgRawBytes(cfg)/4)
	}
}

func cfgRawBytes(cfg model.Config) int64 {
	var n int64
	for _, rows := range cfg.TableSizes {
		n += int64(rows) * int64(cfg.EmbeddingDim) * 4
	}
	return n
}

// TestServeLRUExact pins exact-LRU eviction with a two-entry cache on a
// hand-built single-table model: the least recently *used* (not least
// recently admitted) row is the one evicted.
func TestServeLRUExact(t *testing.T) {
	cfg := model.Config{
		DenseFeatures: 2, EmbeddingDim: 4,
		TableSizes: []int{8},
		BottomMLP:  []int{4}, TopMLP: []int{4},
		Seed: 7,
	}
	m, err := model.New(cfg)
	if err != nil {
		t.Fatalf("model.New: %v", err)
	}
	// Two-entry cache: 2 rows × dim 4 × 4 bytes. BlockRows 1 so a miss
	// decodes exactly the missed row's block.
	srv, err := NewFromModel(m, Options{HotBytes: 2 * 4 * 4, BlockRows: 1})
	if err != nil {
		t.Fatalf("NewFromModel: %v", err)
	}
	defer srv.Close()

	dense := tensor.NewMatrix(1, 2)
	out := make([]float32, 1)
	lookup := func(row int32) (hit bool) {
		before := srv.Stats()
		if err := srv.ScoreBatch(dense, [][]int32{{row}}, out); err != nil {
			t.Fatalf("lookup %d: %v", row, err)
		}
		after := srv.Stats()
		switch {
		case after.Hits == before.Hits+1:
			return true
		case after.Misses == before.Misses+1:
			return false
		}
		t.Fatalf("lookup %d: stats moved oddly: %+v -> %+v", row, before, after)
		return false
	}

	if lookup(0) {
		t.Fatal("first touch of row 0 should miss")
	}
	if lookup(1) {
		t.Fatal("first touch of row 1 should miss")
	}
	if !lookup(0) {
		t.Fatal("row 0 should be cached")
	}
	// Cache is {0, 1} with 1 the LRU entry. Row 2 must evict 1, not 0.
	if lookup(2) {
		t.Fatal("first touch of row 2 should miss")
	}
	if !lookup(0) {
		t.Fatal("row 0 was recently used; row 2's admission must not evict it")
	}
	if lookup(1) {
		t.Fatal("row 1 was the LRU entry; it should have been evicted")
	}
}

// TestServiceMatchesScoreBatch runs the admission-controlled micro-batching
// path concurrently and checks every score matches the synchronous path
// bit-for-bit — coalescing requests into shared batches must not change
// the arithmetic of any single request.
func TestServiceMatchesScoreBatch(t *testing.T) {
	spec := testSpec()
	cfg, ckpt := trainedCheckpoint(t, "raw")
	ref := referenceModel(t, cfg, ckpt)
	reqs := requestStream(spec, 300)
	want := refScores(ref, reqs)

	srv, err := New(cfg, bytes.NewReader(ckpt), Options{
		ColdCodec: "lzss", Workers: 3, MaxBatch: 8,
		QueueDepth: 1024,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	got := make([]float32, len(reqs))
	var wg sync.WaitGroup
	errs := make(chan error, len(reqs))
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r *criteo.Batch) {
			defer wg.Done()
			idx := make([]int32, len(r.Indices))
			for t := range r.Indices {
				idx[t] = r.Indices[t][0]
			}
			score, err := srv.Score(r.Dense.Row(0), idx)
			if err != nil {
				errs <- err
				return
			}
			got[i] = score
		}(i, r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("Score: %v", err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("request %d: service scored %v, reference %v", i, got[i], want[i])
		}
	}
	if st := srv.Stats(); st.Requests < int64(len(reqs)) {
		t.Fatalf("stats count %d requests, served %d", st.Requests, len(reqs))
	}
}

// TestServeOverload floods a one-deep intake queue while the only worker is
// stalled and checks admission control sheds with ErrOverloaded instead of
// queueing without bound, that shed counts land in Stats, and that every
// admitted request still gets an answer. Holding shard 0's lock blocks
// table 0's gather, so the worker holds at most one request and the queue
// one more: at least 510 of the 512 must be shed, whatever the scheduler
// does.
func TestServeOverload(t *testing.T) {
	cfg, ckpt := trainedCheckpoint(t, "raw")
	srv, err := New(cfg, bytes.NewReader(ckpt), Options{
		QueueDepth: 1, MaxBatch: 1, Workers: 1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	const flood = 512
	dense := make([]float32, cfg.DenseFeatures)
	idx := make([]int32, len(cfg.TableSizes))
	var wg sync.WaitGroup
	var scored, shed, other atomic.Int64
	srv.shards[0].mu.Lock()
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch _, err := srv.Score(dense, idx); err {
			case nil:
				scored.Add(1)
			case ErrOverloaded:
				shed.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	for srv.shed.Load()+other.Load() < flood-2 {
		runtime.Gosched()
	}
	srv.shards[0].mu.Unlock()
	wg.Wait()

	if n := other.Load(); n != 0 {
		t.Fatalf("%d requests failed with unexpected errors", n)
	}
	if s, d := scored.Load(), shed.Load(); s+d != flood || s < 1 || s > 2 {
		t.Fatalf("%d scored + %d shed of %d: want every request answered, 1 or 2 of them scored", s, d, flood)
	}
	st := srv.Stats()
	if st.Shed != shed.Load() {
		t.Fatalf("stats report %d shed, callers saw %d", st.Shed, shed.Load())
	}
	if st.Requests != scored.Load() {
		t.Fatalf("stats report %d scored, callers saw %d", st.Requests, scored.Load())
	}
}

// requestArgs returns a one-sample batch as Score's arguments.
func requestArgs(r *criteo.Batch) ([]float32, []int32) {
	idx := make([]int32, len(r.Indices))
	for t := range r.Indices {
		idx[t] = r.Indices[t][0]
	}
	return r.Dense.Row(0), idx
}

// stallWorker parks a one-worker server's batcher between batches. It
// enqueues r as a request whose reply slot is already taken and waits until
// the worker has started scoring it; the worker is then past its drain of
// the (empty) queue and will block on the reply, so every Score call made
// from here on stays queued. release unblocks the worker and returns r's
// score.
func stallWorker(t *testing.T, srv *Server, r *criteo.Batch) (release func() float32) {
	t.Helper()
	dense, idx := requestArgs(r)
	p := &pending{dense: dense, idx: idx, done: make(chan struct{}, 1)}
	p.done <- struct{}{}
	before := srv.batches.Load()
	srv.intake <- p
	for srv.batches.Load() == before {
		runtime.Gosched()
	}
	return func() float32 {
		<-p.done // the placeholder: the worker's reply can land now
		<-p.done // the reply
		if p.err != nil {
			t.Fatalf("stalled request: %v", p.err)
		}
		return p.score
	}
}

// TestServiceSequentialNeverWaits pins the batching policy with a counter,
// not a clock: one goroutine's sequential Score calls never find a partner
// in the queue, so each is scored as a batch of its own — nothing waits for
// a batch-mate that is not coming.
func TestServiceSequentialNeverWaits(t *testing.T) {
	spec := testSpec()
	cfg, ckpt := trainedCheckpoint(t, "raw")
	reqs := requestStream(spec, 64)
	want := refScores(referenceModel(t, cfg, ckpt), reqs)
	srv, err := New(cfg, bytes.NewReader(ckpt), Options{ColdCodec: "lzss"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	for i, r := range reqs {
		score, err := srv.Score(requestArgs(r))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if math.Float32bits(score) != math.Float32bits(want[i]) {
			t.Fatalf("request %d: service scored %v, reference %v", i, score, want[i])
		}
	}
	if st := srv.Stats(); st.Batches != st.Requests || st.Requests != int64(len(reqs)) {
		t.Fatalf("%d sequential requests scored in %d batches (%d samples); want one batch each", len(reqs), st.Batches, st.Requests)
	}
}

// TestServiceCoalescesBacklog checks where batching does happen: requests
// that queue while a batch is being scored form the next batch, capped at
// MaxBatch, and coalescing changes no score's bits.
func TestServiceCoalescesBacklog(t *testing.T) {
	spec := testSpec()
	cfg, ckpt := trainedCheckpoint(t, "raw")
	reqs := requestStream(spec, 8)
	want := refScores(referenceModel(t, cfg, ckpt), reqs)
	for _, tc := range []struct {
		maxBatch int
		batches  int64 // the stalled request alone, then the backlog of 7
	}{{0, 2}, {4, 3}} {
		t.Run(fmt.Sprintf("max_batch_%d", tc.maxBatch), func(t *testing.T) {
			srv, err := New(cfg, bytes.NewReader(ckpt), Options{MaxBatch: tc.maxBatch})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer srv.Close()
			got := make([]float32, len(reqs))
			errs := make([]error, len(reqs))
			release := stallWorker(t, srv, reqs[0])
			var wg sync.WaitGroup
			for i := 1; i < len(reqs); i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = srv.Score(requestArgs(reqs[i]))
				}(i)
			}
			for len(srv.intake) < len(reqs)-1 {
				runtime.Gosched()
			}
			got[0] = release()
			wg.Wait()
			for i := range reqs {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("request %d: service scored %v, reference %v", i, got[i], want[i])
				}
			}
			if st := srv.Stats(); st.Batches != tc.batches || st.Requests != int64(len(reqs)) {
				t.Fatalf("%d requests scored in %d batches, want %d", st.Requests, st.Batches, tc.batches)
			}
		})
	}
}

// TestServiceBadRequestFailsAlone queues valid requests behind a stalled
// worker together with requests naming rows outside their tables. The bad
// ones must fail on their own; the valid ones, coalesced into one batch,
// must score exactly what ScoreBatch gives them.
func TestServiceBadRequestFailsAlone(t *testing.T) {
	spec := testSpec()
	cfg, ckpt := trainedCheckpoint(t, "raw")
	srv, err := New(cfg, bytes.NewReader(ckpt), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	good := requestStream(spec, 4)
	want := make([]float32, len(good))
	for i, r := range good {
		if err := srv.ScoreBatch(r.Dense, r.Indices, want[i:i+1]); err != nil {
			t.Fatalf("ScoreBatch %d: %v", i, err)
		}
	}
	// One row past the end of table 0, and a negative row in the last table.
	var bad [2][]int32
	for k := range bad {
		_, bad[k] = requestArgs(good[0])
	}
	bad[0][0] = int32(cfg.TableSizes[0])
	bad[1][len(cfg.TableSizes)-1] = -1

	release := stallWorker(t, srv, good[0])
	got := make([]float32, len(good))
	goodErrs := make([]error, len(good))
	var badErrs [len(bad)]error
	var badDone atomic.Int64
	var wg sync.WaitGroup
	for i := 1; i < len(good); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], goodErrs[i] = srv.Score(requestArgs(good[i]))
		}(i)
	}
	for k := range bad {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, badErrs[k] = srv.Score(good[0].Dense.Row(0), bad[k])
			badDone.Add(1)
		}(k)
	}
	// Every request is queued or already answered before the worker moves.
	for len(srv.intake)+int(badDone.Load()) < len(good)-1+len(bad) {
		runtime.Gosched()
	}
	got[0] = release()
	wg.Wait()

	for k, err := range badErrs {
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("bad request %d: err = %v, want out-of-range", k, err)
		}
	}
	for i := range good {
		if goodErrs[i] != nil {
			t.Fatalf("valid request %d failed alongside the bad ones: %v", i, goodErrs[i])
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("valid request %d: service scored %v, ScoreBatch %v", i, got[i], want[i])
		}
	}
}

// TestServeClose pins the shutdown contract: Close is idempotent, Score
// after Close returns ErrClosed, in-flight requests complete, and
// ScoreBatch keeps working.
func TestServeClose(t *testing.T) {
	cfg, ckpt := trainedCheckpoint(t, "raw")
	srv, err := New(cfg, bytes.NewReader(ckpt), Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dense := make([]float32, cfg.DenseFeatures)
	idx := make([]int32, len(cfg.TableSizes))

	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Score(dense, idx); err != nil && err != ErrOverloaded && err != ErrClosed {
				t.Errorf("in-flight Score: %v", err)
			}
		}()
	}
	srv.Close()
	srv.Close() // idempotent
	wg.Wait()

	if _, err := srv.Score(dense, idx); err != ErrClosed {
		t.Fatalf("Score after Close: err = %v, want ErrClosed", err)
	}
	b := criteo.NewGenerator(testSpec()).NextBatch(4)
	out := make([]float32, 4)
	if err := srv.ScoreBatch(b.Dense, b.Indices, out); err != nil {
		t.Fatalf("ScoreBatch after Close: %v", err)
	}
}

// TestServeOptionErrors pins construction-time validation.
func TestServeOptionErrors(t *testing.T) {
	cfg, ckpt := trainedCheckpoint(t, "raw")
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"unknown_codec", Options{ColdCodec: "zstd"}, "unknown cold codec"},
		{"quant_without_eb", Options{ColdCodec: "quant"}, "QuantEB"},
		{"eb_without_quant", Options{ColdCodec: "lzss", QuantEB: 0.01}, "does not quantize"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(cfg, bytes.NewReader(ckpt), tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}

	t.Run("config_mismatch", func(t *testing.T) {
		bad := cfg
		bad.EmbeddingDim = 16
		if _, err := New(bad, bytes.NewReader(ckpt), Options{}); err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Fatalf("err = %v, want shape mismatch", err)
		}
	})

	t.Run("bad_indices", func(t *testing.T) {
		srv, err := New(cfg, bytes.NewReader(ckpt), Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer srv.Close()
		dense := tensor.NewMatrix(1, cfg.DenseFeatures)
		idx := make([][]int32, len(cfg.TableSizes))
		for i := range idx {
			idx[i] = []int32{0}
		}
		idx[0][0] = int32(cfg.TableSizes[0])
		out := make([]float32, 1)
		if err := srv.ScoreBatch(dense, idx, out); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("err = %v, want out-of-range", err)
		}
	})
}
