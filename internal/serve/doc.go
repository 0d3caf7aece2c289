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
// The request path — dense features → sharded gather → DotInteraction →
// top MLP → sigmoid — runs on preallocated per-scorer workspaces and the
// buffered codec paths, so steady-state scoring performs no heap
// allocation (pinned by an AllocsPerRun gate). Server.Score adds admission
// control: a bounded intake queue sheds with ErrOverloaded when full, and
// batcher workers coalesce concurrent requests into micro-batches. A free
// worker takes whatever is queued (up to MaxBatch) and scores it at once —
// no timer holds a batch open — so a lone request is never delayed, and
// batches grow only as a backlog builds. Because the hot cache stores exactly
// the decoded rows, a cache hit and a cache miss reconstruct identical
// bits — caching never changes a score, for any cold codec.
package serve
