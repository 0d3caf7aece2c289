package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/criteo"
	"dlrmcomp/internal/lz4like"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/tensor"
)

// oneTableServer builds a server over a hand-built single-table model with
// dim 4 and two dense features, so a test can name every row it touches.
// A blockRows below the blockRows constant rebuilds the table's cold store
// at that granularity, so a test can also name block boundaries; 0 keeps
// the server's own.
func oneTableServer(t *testing.T, rows, blockRows int, opts Options) *Server {
	t.Helper()
	m, err := model.New(model.Config{
		DenseFeatures: 2, EmbeddingDim: 4,
		TableSizes: []int{rows},
		BottomMLP:  []int{4}, TopMLP: []int{4},
		Seed: 7,
	})
	if err != nil {
		t.Fatalf("model.New: %v", err)
	}
	srv, err := NewFromModel(m, opts)
	if err != nil {
		t.Fatalf("NewFromModel: %v", err)
	}
	t.Cleanup(srv.Close)
	if blockRows > 0 {
		sh := srv.shards[0]
		if sh.tables[0], err = newTableStore(0, m.Emb.Tables[0].Weights.Data, rows, 4, blockRows, sh.cc); err != nil {
			t.Fatalf("newTableStore: %v", err)
		}
	}
	return srv
}

// parkingCodec parks every DecompressInto until release is closed; parked
// is closed when the first one arrives.
type parkingCodec struct {
	codec.Codec
	once    sync.Once
	parked  chan struct{}
	release chan struct{}
}

func (p *parkingCodec) DecompressInto(dst []float32, frame []byte) (int, error) {
	p.once.Do(func() { close(p.parked) })
	<-p.release
	return p.Codec.DecompressInto(dst, frame)
}

// TestGatherDecodesOutsideShardLock pins that a cold-block decode holds
// neither its shard's lock nor anyone else's scorer: caller A misses and
// parks inside the codec, and caller B's all-hit ScoreBatch on the same
// shard must return while A is still parked. Channels order the two
// callers; the timers only turn a hang into a failure.
func TestGatherDecodesOutsideShardLock(t *testing.T) {
	// Two concurrent ScoreBatch callers need two scorers, whatever -cpu
	// the suite runs at.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	srv := oneTableServer(t, 8, 0, Options{ColdCodec: "lzss"})
	dense := tensor.NewMatrix(1, 2)
	score := func(row int32) (float32, error) {
		out := make([]float32, 1)
		err := srv.ScoreBatch(dense, [][]int32{{row}}, out)
		return out[0], err
	}
	want, err := score(0) // row 0 is hot from here on
	if err != nil {
		t.Fatalf("warm: %v", err)
	}

	pc := &parkingCodec{Codec: lz4like.LZSSCodec{}, parked: make(chan struct{}), release: make(chan struct{})}
	srv.shards[0].cc = &coldCodec{name: "lzss", block: pc}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(pc.release) }) }
	defer release()

	aDone := make(chan error, 1)
	go func() {
		_, err := score(1)
		aDone <- err
	}()
	select {
	case <-pc.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("caller A never reached the cold-block decode")
	}

	type result struct {
		score float32
		err   error
	}
	bDone := make(chan result, 1)
	go func() {
		s, err := score(0)
		bDone <- result{s, err}
	}()
	select {
	case r := <-bDone:
		if r.err != nil {
			t.Fatalf("caller B: %v", r.err)
		}
		if math.Float32bits(r.score) != math.Float32bits(want) {
			t.Fatalf("caller B scored %v, the warm call %v", r.score, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an all-hit ScoreBatch waited on another caller's cold-block decode")
	}
	select {
	case err := <-aDone:
		t.Fatalf("caller A returned (%v) while its decode was parked", err)
	default:
	}
	release()
	if err := <-aDone; err != nil {
		t.Fatalf("caller A: %v", err)
	}
}

// TestGatherRowRangeParity pins the miss path's span decode against
// whole-block decodes of the same frames, for every cold codec, with no
// hot cache and a block size that does not divide the table: gathers of a
// block's first row, its last row, rows of the short last block, several
// rows of one block, repeated rows, and rows spread over many blocks must
// all return the rows a whole-block decode holds, bit for bit.
func TestGatherRowRangeParity(t *testing.T) {
	const rows, blockRows, dim = 23, 5, 4 // blocks of 5 rows, the last of 3
	gathers := map[string][]int32{
		"block-first":  {5},
		"block-last":   {9},
		"short-block":  {22, 20},
		"one-block":    {13, 11, 12},
		"repeats":      {14, 6, 14, 6, 6},
		"spread":       {0, 4, 5, 9, 10, 22, 3, 17},
		"whole-blocks": {0, 1, 2, 3, 4, 20, 21, 22},
	}
	for _, codecName := range ColdCodecs() {
		t.Run(codecName, func(t *testing.T) {
			opts := Options{ColdCodec: codecName, HotBytes: -1}
			if codecName == "quant" {
				opts.QuantEB = 0.02
			}
			srv := oneTableServer(t, rows, blockRows, opts)
			sh := srv.shards[0]
			ts := sh.tables[0]
			want := make([]float32, 0, rows*dim)
			for b, frame := range ts.frames {
				whole := make([]float32, ts.blockLen(b)*dim)
				switch {
				case sh.cc.quant != nil:
					_, err := sh.cc.quant.DecompressInto(whole, frame)
					if err != nil {
						t.Fatal(err)
					}
				case sh.cc.block != nil:
					_, err := sh.cc.block.DecompressInto(whole, frame)
					if err != nil {
						t.Fatal(err)
					}
				default:
					for i := range whole {
						whole[i] = math.Float32frombits(binary.LittleEndian.Uint32(frame[4*i:]))
					}
				}
				want = append(want, whole...)
			}
			gs := &gatherScratch{block: make([]float32, blockRows*dim)}
			for name, idx := range gathers {
				dst := tensor.NewMatrix(len(idx), dim)
				if err := sh.gatherInto(dst, 0, idx, gs); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, row := range idx {
					for j, v := range dst.Row(i) {
						if w := want[int(row)*dim+j]; math.Float32bits(v) != math.Float32bits(w) {
							t.Fatalf("%s: row %d value %d is %v, the whole-block decode's %v", name, row, j, v, w)
						}
					}
				}
			}
		})
	}
}

// countingCodec counts DecompressInto calls.
type countingCodec struct {
	codec.Codec
	decodes atomic.Int64
}

func (c *countingCodec) DecompressInto(dst []float32, frame []byte) (int, error) {
	c.decodes.Add(1)
	return c.Codec.DecompressInto(dst, frame)
}

// TestGatherDecodesEachBlockOnce checks the miss path's dedup: one gather
// naming cold rows twice and several rows of one block decodes each
// distinct block once, counts each distinct row as one miss and each
// repeat as a hit, and scores every sample as the uncached reference does.
func TestGatherDecodesEachBlockOnce(t *testing.T) {
	const rows, blockRows = 16, 4
	srv := oneTableServer(t, rows, blockRows, Options{ColdCodec: "lzss", HotBytes: rows * 4 * 4})
	ref := oneTableServer(t, rows, 0, Options{ColdCodec: "raw", HotBytes: -1})
	cc := &countingCodec{Codec: lz4like.LZSSCodec{}}
	srv.shards[0].cc = &coldCodec{name: "lzss", block: cc}

	// Rows 1, 2, 5, 9, 13 (blocks 0, 0, 1, 2, 3); 1 and 5 repeat.
	idx := [][]int32{{5, 1, 5, 2, 9, 1, 5, 13}}
	const distinctRows, repeats, blocks = 5, 3, 4
	n := len(idx[0])
	dense := tensor.NewMatrix(n, 2)
	for i := range dense.Data {
		dense.Data[i] = float32(i%5) - 2
	}
	want := make([]float32, n)
	if err := ref.ScoreBatch(dense, idx, want); err != nil {
		t.Fatalf("reference: %v", err)
	}

	got := make([]float32, n)
	for pass, tc := range []struct{ decodes, hits, misses int64 }{
		{blocks, repeats, distinctRows}, // cold: one decode per block
		{blocks, int64(n), 0},           // every row now hot
	} {
		before := srv.Stats()
		if err := srv.ScoreBatch(dense, idx, got); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		after := srv.Stats()
		if d := cc.decodes.Load(); d != tc.decodes {
			t.Errorf("pass %d: %d block decodes so far, want %d", pass, d, tc.decodes)
		}
		if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != tc.hits || m != tc.misses {
			t.Errorf("pass %d: stats moved by %d hits, %d misses; want %d, %d", pass, h, m, tc.hits, tc.misses)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("pass %d sample %d: scored %v, the uncached reference %v", pass, i, got[i], want[i])
			}
		}
	}
}

// TestScoreBatchConcurrentParity runs four ScoreBatch callers at once
// against small-cache servers, so hits, misses, admissions and evictions
// from different callers interleave on the same shards. Every score must
// equal the uncached reference bit for bit (raw for the lossless codec,
// uncached quant for the lossy one), and the hit and miss counters must
// account for every lookup exactly once.
func TestScoreBatchConcurrentParity(t *testing.T) {
	spec := testSpec()
	cfg, ckpt := trainedCheckpoint(t)
	const callers, perCaller, batch = 4, 8, 16
	gen := criteo.NewGenerator(spec)
	batches := make([]*criteo.Batch, callers*perCaller)
	for i := range batches {
		batches[i] = gen.NextBatch(batch)
	}
	small := cfgRawBytes(cfg) / 64
	for _, tc := range []struct {
		name      string
		opts, ref Options
	}{
		{"lzss", Options{ColdCodec: "lzss", Shards: 2, HotBytes: small}, Options{ColdCodec: "raw", HotBytes: -1}},
		{"quant", Options{ColdCodec: "quant", QuantEB: 0.02, Shards: 2, HotBytes: small}, Options{ColdCodec: "quant", QuantEB: 0.02, HotBytes: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := New(cfg, bytes.NewReader(ckpt), tc.ref)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			defer ref.Close()
			want := make([][]float32, len(batches))
			for i, b := range batches {
				want[i] = make([]float32, batch)
				if err := ref.ScoreBatch(b.Dense, b.Indices, want[i]); err != nil {
					t.Fatalf("reference batch %d: %v", i, err)
				}
			}

			srv, err := New(cfg, bytes.NewReader(ckpt), tc.opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer srv.Close()
			got := make([][]float32, len(batches))
			errs := make([]error, callers)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c * perCaller; i < (c+1)*perCaller; i++ {
						got[i] = make([]float32, batch)
						if err := srv.ScoreBatch(batches[i].Dense, batches[i].Indices, got[i]); err != nil {
							errs[c] = err
							return
						}
					}
				}(c)
			}
			wg.Wait()
			for c, err := range errs {
				if err != nil {
					t.Fatalf("caller %d: %v", c, err)
				}
			}
			for i := range batches {
				for k := range want[i] {
					if math.Float32bits(got[i][k]) != math.Float32bits(want[i][k]) {
						t.Fatalf("batch %d sample %d: scored %v, the uncached reference %v", i, k, got[i][k], want[i][k])
					}
				}
			}
			st := srv.Stats()
			if lookups := int64(len(batches) * batch * len(cfg.TableSizes)); st.Hits+st.Misses != lookups {
				t.Fatalf("%d hits + %d misses, want the %d lookups issued", st.Hits, st.Misses, lookups)
			}
			if st.Misses == 0 || st.Hits == 0 {
				t.Fatalf("%d hits, %d misses: the workload should exercise both paths", st.Hits, st.Misses)
			}
		})
	}
}
