// Package serve is the inference side of the train→serve artifact: sharded
// embedding-table servers loaded straight from a DLCK checkpoint
// (dist.SaveCheckpoint's output, decoded by dist.ReadCheckpoint), scoring
// requests through the same nn/interaction layers training uses.
//
// The layer turns the paper's communication codecs into a memory-capacity
// lever. Each shard (table t lives on shard t % Shards, the round-robin
// placement internal/dist uses for ranks) keeps its rows in a two-tier
// store: cold rows as per-block compressed frames (lossless codecs for
// bit-parity with the checkpoint; a lossy quantized mode behind
// Options.QuantEB with a build-time accuracy check), under a byte-budgeted
// exact-LRU hot cache of decoded rows. The Zipf-skewed access pattern the
// dataset generator models makes a small hot cache absorb most lookups, so
// the decode cost lands only on the cold tail.
//
// A shard's lock guards its cache, not its codec. A gather copies the hits
// and lists the misses under the lock, then sorts the misses and, without
// it, decodes each missed block's frame up to its last missed row and
// dequantizes only the missed span — and copies each distinct row once —
// into the calling scorer's own scratch (the cold frames are immutable
// after load and every cold codec is safe for concurrent use), and finally
// retakes the lock to count and admit the decoded rows. The sorted misses
// of one block are adjacent, so the span is known before its decode: the
// "quant" tier runs its lossless stage only to the span's end, "raw" reads
// only the span's bytes, and "lzss", which has no random access, decodes
// the whole block. Concurrent callers therefore overlap their cold
// decodes, and an all-hit gather never waits behind another caller's
// decode.
//
// The request path — dense features → sharded gather → DotInteraction →
// top MLP → sigmoid — runs on preallocated per-scorer workspaces and the
// buffered codec paths, so steady-state scoring performs no heap
// allocation (pinned by an AllocsPerRun gate). The Score batcher owns a
// scorer; ScoreBatch callers borrow one each, built on first demand up to
// GOMAXPROCS of them, so that many callers score in parallel.
//
// Server.Score adds admission control: a bounded intake queue (4×64
// requests) sheds with ErrOverloaded when full, and one batcher goroutine
// coalesces concurrent requests into micro-batches. When free it takes
// whatever is queued (up to 64 requests) and scores it at once — no timer
// holds a batch open — so a lone request is never delayed, and batches
// grow only as a backlog builds. Because the hot cache stores exactly the
// decoded rows, a cache hit and a cache miss reconstruct identical bits —
// caching never changes a score, for any cold codec.
//
// Drive is the closed-loop load driver cmd/dlrmserve and the loadtest
// experiment share; Reference and Load.Compare hold its scores to an
// uncached raw server's.
package serve
