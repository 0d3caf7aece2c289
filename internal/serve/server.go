package serve

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"dlrmcomp/internal/dist"
	"dlrmcomp/internal/interaction"
	"dlrmcomp/internal/model"
	"dlrmcomp/internal/nn"
	"dlrmcomp/internal/tensor"
)

// Options configures a Server. The zero value of every field means "use
// the documented default".
type Options struct {
	// Shards is the embedding-server count; table t lives on shard
	// t % Shards, the same round-robin placement internal/dist uses for
	// ranks. 0 = 1.
	Shards int
	// ColdCodec names the cold-tier frame codec: "raw" (default),
	// "lzss", "deflate" (lossless — serving scores are bit-identical to
	// uncompressed tables), or "quant" (lossy: rows quantized through
	// the hybrid codec within QuantEB; verified against the source
	// weights at load time).
	ColdCodec string
	// QuantEB is the absolute error bound of the "quant" cold codec.
	// Required (> 0) with ColdCodec "quant", rejected otherwise.
	QuantEB float32
	// BlockRows is the cold-frame granularity in rows (0 = 64). Each
	// missed block is decoded once per gather, however many of its rows
	// the batch misses, and only as far as it must be: a "quant" miss
	// pays the block's lossless prefix up to its last missed row and
	// dequantizes only the missed span, "raw" reads just those rows, and
	// "lzss"/"deflate" decode the whole block. Larger blocks compress
	// better; they cost a "quant" miss only the longer prefix, not a
	// whole-block dequantize.
	BlockRows int
	// HotBytes budgets the hot cache of decoded rows, in bytes across
	// all shards. 0 = a quarter of the uncompressed table footprint;
	// negative = no hot cache (every gather decodes the blocks its rows
	// live in — the uncached reference path the parity tests compare
	// against).
	HotBytes int64
	// MaxBatch caps a micro-batch (0 = 64). A worker never waits to fill
	// one: it scores whatever is queued when it becomes free, up to this
	// many requests.
	MaxBatch int
	// QueueDepth bounds the intake queue; a Score arriving with the
	// queue full is shed with ErrOverloaded instead of queueing without
	// bound. 0 = 4×MaxBatch.
	QueueDepth int
	// Workers is the batcher-goroutine count, each with its own scorer
	// workspace (0 = 1).
	Workers int
	// ComputeWorkers is the intra-op parallel width of each scorer's
	// matmuls (0 = 1). Serving scales by request concurrency instead:
	// every concurrent ScoreBatch caller (up to GOMAXPROCS of them) and
	// every Score worker gets a scorer of its own, and cold-block decodes
	// run outside the shard locks. Single-threaded kernels — which also
	// keep the request path allocation-free — are therefore the right
	// default; raise this only for very large micro-batches.
	ComputeWorkers int
}

// resolved fills the documented defaults; rawBytes is the uncompressed
// table footprint HotBytes defaults against.
func (o Options) resolved(rawBytes int64) Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.ColdCodec == "" {
		o.ColdCodec = DefaultColdCodec
	}
	if o.BlockRows <= 0 {
		o.BlockRows = 64
	}
	if o.HotBytes == 0 {
		o.HotBytes = rawBytes / 4
	}
	if o.HotBytes < 0 {
		o.HotBytes = 0
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.MaxBatch
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.ComputeWorkers <= 0 {
		o.ComputeWorkers = 1
	}
	return o
}

// Server scores requests against a checkpointed DLRM: sharded two-tier
// embedding stores plus per-caller MLP/interaction workspaces. ScoreBatch
// is the synchronous path (caller-assembled batches); Score is the
// admission-controlled micro-batching path. Both are safe for concurrent
// use.
type Server struct {
	cfg  model.Config
	opts Options

	shards  []*shard
	byTable []*shard // table id -> owning shard
	tmpl    *model.DLRM
	scorers chan *scorer // idle scorers; its capacity caps how many are built
	built   atomic.Int64 // scorers built so far

	intake  chan *pending
	pool    sync.Pool
	workers chan struct{} // exited-worker tokens for Close to join
	closeMu sync.RWMutex
	closed  bool

	requests atomic.Int64
	shed     atomic.Int64
	batches  atomic.Int64
}

// scorer is one caller's private forward-pass workspace: MLP clones and a
// DotInteraction (their scratch matrices are layer-owned and not
// goroutine-safe), plus reused gather/batch buffers.
type scorer struct {
	bottom, top *nn.MLP
	di          *interaction.DotInteraction
	gather      gatherScratch
	lookups     []*tensor.Matrix
	dense       *tensor.Matrix
	cols        [][]int32
	out         []float32
}

// New loads a Server from a DLCK checkpoint stream. cfg must describe the
// model the checkpoint was saved from (dim, table sizes, MLP widths) —
// the checkpoint carries shapes and weights, not architecture — and is
// verified against the decoded shapes.
func New(cfg model.Config, r io.Reader, opts Options) (*Server, error) {
	ck, err := dist.ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if ck.Dim != cfg.EmbeddingDim || len(ck.TableRows) != len(cfg.TableSizes) {
		return nil, fmt.Errorf("serve: checkpoint shape dim=%d tables=%d does not match the config's dim=%d tables=%d",
			ck.Dim, len(ck.TableRows), cfg.EmbeddingDim, len(cfg.TableSizes))
	}
	for t, rows := range ck.TableRows {
		if rows != cfg.TableSizes[t] {
			return nil, fmt.Errorf("serve: checkpoint table %d has %d rows, the config has %d", t, rows, cfg.TableSizes[t])
		}
	}
	return newServer(cfg, ck.Dense, ck.Tables, opts)
}

// NewFromModel builds a Server directly from a trained in-memory model —
// the same assembly as New without the checkpoint round trip. The model's
// weights are copied; the server holds no reference to m afterwards.
func NewFromModel(m *model.DLRM, opts Options) (*Server, error) {
	params := m.DenseParams()
	dense := make([][]float32, len(params))
	for i, p := range params {
		dense[i] = p.Value
	}
	tables := make([][]float32, len(m.Emb.Tables))
	for t, tab := range m.Emb.Tables {
		tables[t] = tab.Weights.Data
	}
	return newServer(m.Cfg, dense, tables, opts)
}

func newServer(cfg model.Config, dense [][]float32, tables [][]float32, opts Options) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var rawBytes int64
	for _, rows := range cfg.TableSizes {
		rawBytes += int64(rows) * int64(cfg.EmbeddingDim) * 4
	}
	opts = opts.resolved(rawBytes)
	if opts.ColdCodec != "quant" && opts.QuantEB != 0 {
		return nil, fmt.Errorf("serve: QuantEB is the %q codec's knob; cold codec %q does not quantize", "quant", opts.ColdCodec)
	}
	cc, err := coldCodecByName(opts.ColdCodec, opts.QuantEB)
	if err != nil {
		return nil, err
	}

	s := &Server{cfg: cfg, opts: opts}

	// The MLP stack: build a throwaway model for its layer shapes (with
	// 1-row tables, so no real embedding storage), then overwrite every
	// dense parameter from the checkpoint. Init values never survive, so
	// the RNG stream does not need to match training's.
	shapeCfg := cfg
	shapeCfg.TableSizes = make([]int, len(cfg.TableSizes))
	for i := range shapeCfg.TableSizes {
		shapeCfg.TableSizes[i] = 1
	}
	shapeCfg.InitCardinalities = nil
	tmpl, err := model.New(shapeCfg)
	if err != nil {
		return nil, err
	}
	params := tmpl.DenseParams()
	if len(dense) != len(params) {
		return nil, fmt.Errorf("serve: checkpoint carries %d dense tensors, the config's MLPs have %d", len(dense), len(params))
	}
	for i, p := range params {
		if len(dense[i]) != len(p.Value) {
			return nil, fmt.Errorf("serve: checkpoint dense tensor %d has %d values, the config's MLPs have %d", i, len(dense[i]), len(p.Value))
		}
		copy(p.Value, dense[i])
	}

	// Shards and stores. The hot-cache byte budget splits evenly across
	// shards (each shard's cache is private to its mutex domain).
	numTables := len(cfg.TableSizes)
	dim := cfg.EmbeddingDim
	perShard := opts.HotBytes / int64(opts.Shards)
	s.shards = make([]*shard, opts.Shards)
	s.byTable = make([]*shard, numTables)
	for i := range s.shards {
		s.shards[i] = &shard{
			tables: make([]*tableStore, numTables),
			cc:     cc,
			hot:    newHotCache(int(perShard/(int64(dim)*4)), dim),
		}
	}
	for t, rows := range cfg.TableSizes {
		if len(tables[t]) != rows*dim {
			return nil, fmt.Errorf("serve: table %d carries %d values, want %d", t, len(tables[t]), rows*dim)
		}
		sh := s.shards[t%opts.Shards]
		ts, err := newTableStore(t, tables[t], rows, dim, opts.BlockRows, cc)
		if err != nil {
			return nil, err
		}
		sh.tables[t] = ts
		s.byTable[t] = sh
		if cc.name == "quant" {
			if err := verifyQuantBlock(ts, tables[t], cc, opts.QuantEB); err != nil {
				return nil, err
			}
		}
	}

	// Scorers: one per worker now, the rest on demand — one per
	// concurrent ScoreBatch caller, up to GOMAXPROCS of them (see
	// takeScorer). Each clones both MLPs, so building the cap up front
	// would cost memory a one-caller server never uses.
	s.tmpl = tmpl
	s.scorers = make(chan *scorer, opts.Workers+runtime.GOMAXPROCS(0))

	// Micro-batching service.
	s.intake = make(chan *pending, opts.QueueDepth)
	s.workers = make(chan struct{}, opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		s.built.Add(1)
		go s.worker(s.newScorer())
	}
	return s, nil
}

// newScorer builds one forward-pass workspace from the template model.
func (s *Server) newScorer() *scorer {
	n, dim := len(s.cfg.TableSizes), s.cfg.EmbeddingDim
	sc := &scorer{
		bottom:  s.tmpl.Bottom.Clone(),
		top:     s.tmpl.Top.Clone(),
		di:      interaction.NewDotInteraction(n, dim),
		gather:  gatherScratch{block: make([]float32, s.opts.BlockRows*dim)},
		lookups: make([]*tensor.Matrix, n),
		cols:    make([][]int32, n),
	}
	sc.bottom.SetWorkers(s.opts.ComputeWorkers)
	sc.top.SetWorkers(s.opts.ComputeWorkers)
	sc.di.Workers = s.opts.ComputeWorkers
	return sc
}

// takeScorer returns an idle scorer without waiting if there is one, a
// newly built one if fewer than cap(s.scorers) exist, and otherwise the
// next one returned. Scorers are never freed, so once the cap is reached
// the failed increment is simply undone.
func (s *Server) takeScorer() *scorer {
	select {
	case sc := <-s.scorers:
		return sc
	default:
	}
	if s.built.Add(1) <= int64(cap(s.scorers)) {
		return s.newScorer()
	}
	s.built.Add(-1)
	return <-s.scorers
}

// verifyQuantBlock is the lossy mode's load-time accuracy check: the first
// block of every table is decoded and compared against the source weights
// under the configured error bound, so a quantization bug (or an EB the
// weights cannot honor) fails construction instead of silently serving
// wrong scores.
func verifyQuantBlock(ts *tableStore, weights []float32, cc *coldCodec, eb float32) error {
	rows := ts.blockLen(0)
	got, err := cc.decodeRows(make([]float32, rows*ts.dim), ts.frames[0], rows, ts.dim, 0, rows)
	if err != nil {
		return fmt.Errorf("serve: table %d quant verify: %w", ts.id, err)
	}
	// A hair of slack over the bound for float rounding in the codec's
	// reconstruction arithmetic.
	tol := eb * (1 + 1e-4)
	for i, v := range got {
		d := v - weights[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return fmt.Errorf("serve: table %d row %d: quantized value %v is %v from %v, beyond the %v bound",
				ts.id, i/ts.dim, v, d, weights[i], eb)
		}
	}
	return nil
}

// ScoreBatch scores a caller-assembled batch synchronously: dense is
// [n, DenseFeatures], indices holds one index per table per sample, out
// receives the n sigmoid scores. Steady-state calls perform no heap
// allocation. Safe for concurrent use: each call borrows a scorer of its
// own, so up to GOMAXPROCS callers score in parallel.
func (s *Server) ScoreBatch(dense *tensor.Matrix, indices [][]int32, out []float32) error {
	sc := s.takeScorer()
	err := s.scoreInto(sc, dense, indices, out)
	s.scorers <- sc
	return err
}

// scoreInto runs the forward pass on sc's workspaces: sharded gather →
// bottom MLP → dot interaction → top MLP → sigmoid.
func (s *Server) scoreInto(sc *scorer, dense *tensor.Matrix, indices [][]int32, out []float32) error {
	n := dense.Rows
	if dense.Cols != s.cfg.DenseFeatures {
		return fmt.Errorf("serve: batch has %d dense features, the model wants %d", dense.Cols, s.cfg.DenseFeatures)
	}
	if len(indices) != len(s.cfg.TableSizes) {
		return fmt.Errorf("serve: batch has %d index columns, the model has %d tables", len(indices), len(s.cfg.TableSizes))
	}
	if len(out) != n {
		return fmt.Errorf("serve: out holds %d scores for a %d-sample batch", len(out), n)
	}
	for t := range indices {
		if len(indices[t]) != n {
			return fmt.Errorf("serve: table %d has %d indices for a %d-sample batch", t, len(indices[t]), n)
		}
		sc.lookups[t] = sc.lookups[t].Resize(n, s.cfg.EmbeddingDim)
		if err := s.byTable[t].gatherInto(sc.lookups[t], t, indices[t], &sc.gather); err != nil {
			return err
		}
	}
	bot := sc.bottom.Forward(dense)
	z := sc.di.Forward(bot, sc.lookups)
	logits := sc.top.Forward(z)
	for i := 0; i < n; i++ {
		out[i] = nn.Sigmoid(logits.At(i, 0))
	}
	s.requests.Add(int64(n))
	return nil
}

// Stats is a point-in-time serving counter snapshot.
type Stats struct {
	// Requests counts scored samples; Shed counts requests dropped by
	// admission control.
	Requests, Shed int64
	// Batches counts micro-batches scored by the Score service (ScoreBatch
	// calls are not counted); over Score-only traffic, Requests/Batches is
	// the mean batch size.
	Batches int64
	// Hits and Misses count row lookups: a miss is a distinct row a
	// gather had to decode, a hit any other lookup — a hot-cache hit or a
	// repeat of a row already decoded in the same gather.
	Hits, Misses int64
	// HotBytes is the resident decoded-row cache footprint; ColdBytes
	// the resident compressed-frame footprint; RawBytes what the tables
	// would occupy uncompressed.
	HotBytes, ColdBytes, RawBytes int64
}

// HitRate returns Hits/(Hits+Misses), 0 before any lookup.
func (st Stats) HitRate() float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

// ColdRatio returns RawBytes/ColdBytes — the capacity multiplier of the
// compressed cold tier.
func (st Stats) ColdRatio() float64 {
	if st.ColdBytes == 0 {
		return 0
	}
	return float64(st.RawBytes) / float64(st.ColdBytes)
}

// Stats sums the per-shard counters.
func (s *Server) Stats() Stats {
	st := Stats{Requests: s.requests.Load(), Shed: s.shed.Load(), Batches: s.batches.Load()}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.HotBytes += sh.hot.usedBytes()
		for _, ts := range sh.tables {
			if ts != nil {
				st.ColdBytes += ts.coldBytes
				st.RawBytes += ts.rawBytes()
			}
		}
		sh.mu.Unlock()
	}
	return st
}
