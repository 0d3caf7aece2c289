package serve

import (
	"fmt"
	"slices"
	"sync"

	"dlrmcomp/internal/codec"
	"dlrmcomp/internal/hybrid"
	"dlrmcomp/internal/lz4like"
	"dlrmcomp/internal/tensor"
)

// ColdCodecs lists the accepted Options.ColdCodec names. The lossless
// entries ("raw", "lzss") reconstruct the checkpoint bits exactly, so
// serving scores match an uncompressed in-memory table bit-for-bit;
// "quant" trades that for capacity — rows are quantized through the
// hybrid codec within Options.QuantEB of the original.
func ColdCodecs() []string { return []string{"raw", "lzss", "quant"} }

// DefaultColdCodec is the codec used when Options.ColdCodec is empty.
const DefaultColdCodec = "raw"

// coldCodec encodes one block of rows and decodes a span of them. With
// quant and block both nil it is the raw (uncompressed bytes) path, which
// reads only the span's bytes; quant decodes a frame only up to the span's
// last row and dequantizes only the span; block (lzss: no random access)
// decodes the whole block. The codecs append to and decode into buffers
// the caller owns (codec.Codec's one contract), and the quant and lzss
// codecs draw their scratch from pools, so no path allocates in steady
// state. Every path is safe for concurrent use (both pools hand each call
// its own workspace), which is what lets a shard decode outside its lock.
type coldCodec struct {
	name  string
	quant *hybrid.Codec
	block codec.Codec
}

func coldCodecByName(name string, quantEB float32) (*coldCodec, error) {
	switch name {
	case "", DefaultColdCodec:
		return &coldCodec{name: "raw"}, nil
	case "lzss":
		return &coldCodec{name: name, block: lz4like.LZSSCodec{}}, nil
	case "quant":
		if quantEB <= 0 {
			return nil, fmt.Errorf("serve: cold codec \"quant\" needs QuantEB > 0, got %v", quantEB)
		}
		return &coldCodec{name: name, quant: hybrid.New(quantEB, hybrid.Auto)}, nil
	}
	return nil, fmt.Errorf("serve: unknown cold codec %q (want one of %v)", name, ColdCodecs())
}

func (cc *coldCodec) lossless() bool { return cc.quant == nil }

func (cc *coldCodec) encodeAppend(dst []byte, src []float32, dim int) ([]byte, error) {
	switch {
	case cc.quant != nil:
		return cc.quant.CompressAppend(dst, src, dim)
	case cc.block != nil:
		return cc.block.CompressAppend(dst, src, dim)
	}
	return tensor.AppendFloats(dst, src), nil
}

// decodeRows returns rows [lo, hi) of a frame holding rows×dim values,
// decoded into scratch (which holds at least rows×dim values); the result
// aliases scratch.
func (cc *coldCodec) decodeRows(scratch []float32, frame []byte, rows, dim, lo, hi int) ([]float32, error) {
	span := scratch[:(hi-lo)*dim]
	switch {
	case cc.quant != nil:
		return span, cc.quant.DecompressRowsInto(span, frame, lo, hi)
	case cc.block != nil:
		whole := scratch[:rows*dim]
		if _, err := cc.block.DecompressInto(whole, frame); err != nil {
			return nil, err
		}
		return whole[lo*dim : hi*dim], nil
	}
	if len(frame) != 4*rows*dim {
		return nil, fmt.Errorf("serve: raw frame is %d bytes, want %d", len(frame), 4*rows*dim)
	}
	return span, tensor.FloatsFrom(span, frame[4*lo*dim:4*hi*dim])
}

// tableStore is one table's cold tier: rows grouped into blocks of
// blockRows, each block one self-contained codec frame built at load time.
// slots is the hot-cache directory — slots[row] is the cache entry holding
// the decoded row, or -1 when the row is cold. A positional array instead
// of a hash map keeps the miss path allocation-free and O(1) exact.
type tableStore struct {
	id        int
	rows, dim int
	blockRows int
	frames    [][]byte
	slots     []int32
	coldBytes int64
}

func newTableStore(id int, weights []float32, rows, dim int, blockRows int, cc *coldCodec) (*tableStore, error) {
	ts := &tableStore{id: id, rows: rows, dim: dim, blockRows: blockRows}
	ts.slots = make([]int32, rows)
	for i := range ts.slots {
		ts.slots[i] = -1
	}
	for lo := 0; lo < rows; lo += blockRows {
		hi := min(lo+blockRows, rows)
		frame, err := cc.encodeAppend(nil, weights[lo*dim:hi*dim], dim)
		if err != nil {
			return nil, fmt.Errorf("serve: table %d block at row %d: %w", id, lo, err)
		}
		ts.frames = append(ts.frames, frame)
		ts.coldBytes += int64(len(frame))
	}
	return ts, nil
}

// rawBytes is the uncompressed footprint the cold tier replaces.
func (ts *tableStore) rawBytes() int64 { return int64(ts.rows) * int64(ts.dim) * 4 }

// blockOf returns the block index and the row's offset within it.
func (ts *tableStore) blockOf(row int) (blk, off int) {
	return row / ts.blockRows, row % ts.blockRows
}

// blockLen returns the row count of block blk (the last block is short
// when blockRows does not divide the table).
func (ts *tableStore) blockLen(blk int) int {
	return min(ts.blockRows, ts.rows-blk*ts.blockRows)
}

// shard owns the tables assigned to it (table t lives on shard
// t % Shards) plus one hot cache shared by those tables. mu guards the
// cache — the slot directories, the LRU list and slab, and the counters —
// and nothing else: the cold frames are immutable after load and the cold
// codecs are safe for concurrent use, so block decodes run outside it, on
// the calling scorer's own scratch. A gather takes mu at most twice per
// (table, batch), never per row.
type shard struct {
	mu     sync.Mutex
	tables []*tableStore // indexed by global table id; nil = not ours
	cc     *coldCodec
	hot    hotCache
	hits   int64
	misses int64
}

// gatherScratch is one scorer's private gather workspace, used outside
// the shard lock.
type gatherScratch struct {
	miss  []uint64  // row<<32 | position of each missed lookup
	block []float32 // decode scratch, blockRows × dim
}

// gatherInto fills dst (a [len(indices), dim] matrix) with the rows of
// table t named by indices, in three phases:
//
//  1. Under mu: range-check every index, copy and touch the hot-cache
//     hits, and list the misses.
//  2. Without the lock: sort the misses, decode each missed block's frame
//     up to its last missed row and dequantize only the missed span (the
//     sorted misses of one block are adjacent, so the span is known before
//     the decode), and copy out each distinct row once; a row repeated
//     within the gather is copied from its first copy.
//  3. Under mu again: count the distinct rows as misses and the repeats
//     as hits — what a row-by-row loop that admits as it goes would count
//     — and admit each distinct row another caller has not admitted
//     meanwhile.
func (sh *shard) gatherInto(dst *tensor.Matrix, t int, indices []int32, gs *gatherScratch) error {
	ts := sh.tables[t]
	miss := gs.miss[:0]
	sh.mu.Lock()
	for i, idx := range indices {
		if idx < 0 || int(idx) >= ts.rows {
			sh.mu.Unlock()
			return fmt.Errorf("serve: index %d out of range [0,%d) in table %d", idx, ts.rows, ts.id)
		}
		if slot := ts.slots[idx]; slot >= 0 {
			copy(dst.Row(i), sh.hot.row(slot))
			sh.hot.touch(slot)
			continue
		}
		miss = append(miss, uint64(idx)<<32|uint64(i))
	}
	sh.hits += int64(len(indices) - len(miss))
	sh.mu.Unlock()
	gs.miss = miss
	if len(miss) == 0 {
		return nil
	}

	slices.Sort(miss)
	distinct, prev, first, blk, lo := 0, -1, 0, -1, 0
	var span []float32
	for i, m := range miss {
		row, pos := int(m>>32), int(uint32(m))
		if row == prev {
			copy(dst.Row(pos), dst.Row(first))
			continue
		}
		b, off := ts.blockOf(row)
		if b != blk {
			end := i // the block's last miss
			for end+1 < len(miss) && int(miss[end+1]>>32)/ts.blockRows == b {
				end++
			}
			_, last := ts.blockOf(int(miss[end] >> 32))
			var err error
			span, err = sh.cc.decodeRows(gs.block, ts.frames[b], ts.blockLen(b), ts.dim, off, last+1)
			if err != nil {
				return fmt.Errorf("serve: table %d block %d: %w", ts.id, b, err)
			}
			blk, lo = b, off
		}
		copy(dst.Row(pos), span[(off-lo)*ts.dim:(off-lo+1)*ts.dim])
		miss[distinct], prev, first = m, row, pos // compact to distinct rows for phase 3
		distinct++
	}

	sh.mu.Lock()
	sh.misses += int64(distinct)
	sh.hits += int64(len(miss) - distinct)
	for _, m := range miss[:distinct] {
		if row := int(m >> 32); ts.slots[row] < 0 {
			sh.admit(ts, row, dst.Row(int(uint32(m))))
		}
	}
	sh.mu.Unlock()
	return nil
}

// admit inserts a freshly decoded row into the hot cache, evicting the
// exact-LRU entry when the byte budget is full. Callers hold sh.mu.
func (sh *shard) admit(ts *tableStore, row int, vals []float32) {
	h := &sh.hot
	if h.capEntries == 0 {
		return
	}
	var e int32
	if h.size < h.capEntries {
		e = int32(h.size)
		h.size++
	} else {
		e = h.tail
		// Unhook the victim from its owner's directory before reusing
		// the entry.
		sh.tables[h.keyTab[e]].slots[h.keyRow[e]] = -1
		h.unlink(e)
	}
	h.keyTab[e], h.keyRow[e] = int32(ts.id), int32(row)
	copy(h.row(e), vals)
	ts.slots[row] = e
	h.pushFront(e)
}

// hotCache is the decoded-row tier: a preallocated slab of capEntries
// rows threaded onto an intrusive doubly-linked LRU list. No maps, no
// per-entry allocations — the directory lives in each tableStore's slots
// array — so admissions and evictions are allocation-free.
type hotCache struct {
	dim        int
	capEntries int
	slab       []float32
	keyTab     []int32 // owning table id per entry
	keyRow     []int32 // row within the owning table per entry
	prev, next []int32
	head, tail int32
	size       int
}

func newHotCache(capEntries, dim int) hotCache {
	h := hotCache{dim: dim, capEntries: capEntries, head: -1, tail: -1}
	if capEntries > 0 {
		h.slab = make([]float32, capEntries*dim)
		h.keyTab = make([]int32, capEntries)
		h.keyRow = make([]int32, capEntries)
		h.prev = make([]int32, capEntries)
		h.next = make([]int32, capEntries)
	}
	return h
}

func (h *hotCache) row(e int32) []float32 {
	return h.slab[int(e)*h.dim : (int(e)+1)*h.dim]
}

func (h *hotCache) unlink(e int32) {
	p, n := h.prev[e], h.next[e]
	if p >= 0 {
		h.next[p] = n
	} else {
		h.head = n
	}
	if n >= 0 {
		h.prev[n] = p
	} else {
		h.tail = p
	}
}

func (h *hotCache) pushFront(e int32) {
	h.prev[e], h.next[e] = -1, h.head
	if h.head >= 0 {
		h.prev[h.head] = e
	}
	h.head = e
	if h.tail < 0 {
		h.tail = e
	}
}

func (h *hotCache) touch(e int32) {
	if h.head == e {
		return
	}
	h.unlink(e)
	h.pushFront(e)
}

// usedBytes is the resident footprint of the cached rows.
func (h *hotCache) usedBytes() int64 { return int64(h.size) * int64(h.dim) * 4 }
