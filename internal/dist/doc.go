// Package dist implements the hybrid-parallel distributed DLRM trainer of
// the paper (§II-B, §III) on the simulated multi-GPU runtime in
// internal/cluster:
//
//   - embedding tables are model-parallel, sharded round-robin across ranks
//     (table t lives on rank t mod R);
//   - the bottom/top MLPs are data-parallel replicas whose gradients are
//     averaged with an AllReduce every step;
//   - each step performs the forward all-to-all that redistributes embedding
//     lookups from table owners to the ranks holding the corresponding batch
//     shard — the exchange the paper compresses — and the backward
//     all-to-all that routes lookup gradients back to the owners. Both run
//     through one exchange (exchange.go); the backward direction is the
//     same exchange, codec nil.
//
// Layer: the top of the simulation stack. It consumes internal/model (the
// network being trained), internal/codec implementations (per-table
// compression via Options.CodecFor), internal/adapt (the dual-level
// adaptive error-bound Controller), and internal/cluster (collectives +
// sim clock); internal/experiments and cmd/dlrmtrain drive it.
//
// Key types:
//
//   - Options — cluster size, model config, interconnect topology
//     (Options.Net, a netmodel.Topology, which also prices the embedding
//     all-to-alls), device rates, codec and controller hooks.
//   - Trainer — NewTrainer validates the options and builds the sharded
//     state plus the per-rank step workspaces (workspace.go: fused frame
//     buffers, the exchange and its frame scratch, lookup/gradient
//     matrices, the flattened allreduce buffer), so steady-state stepping
//     performs only a small bounded number of allocations (pinned by the
//     allocs-gate tests). Step runs one synchronous iteration in five
//     stages: owners gather lookups; the exchange delivers them, compressed
//     per table; each rank runs its MLP replica on its shard; the same
//     exchange with no codec returns the lookup gradients to the owners,
//     who scatter them; the dense gradients are all-reduced. Compute and
//     codec work inside a rank fan out over one width that NewTrainer
//     derives from GOMAXPROCS/Ranks; Evaluate scores the trained weights
//     single-process.
//
// Step is the one driver, and every Step keeps two clocks of the same
// modelled component costs:
//
//   - the sim-time buckets (Cluster().SimTimes()): every component back to
//     back, so their total is the synchronous step time;
//   - the overlapped clock (overlap.go, read with OverlappedSimTime): the
//     forward all-to-all of batch k+1 is pipelined behind the MLP compute
//     of batch k on a netmodel.Timeline with per-link occupancy, and the
//     codec work is hidden under the head of the NIC transfer.
//
// The clock is bookkeeping after the step's math, so losses and
// parameters are the same whichever clock is read (and, at one rank,
// bit-identical to single-process model.DLRM training).
//
// Sim-time buckets charged per step (read them back through
// profileutil.Breakdown on Cluster().SimTimes()): "fwd-a2a", "bwd-a2a"
// (split into "-intra"/"-inter" under a multi-node topology),
// "allreduce", "mlp", "lookup", "compress", "decompress", and "other"
// (Options.OtherComputeFactor × MLP time, standing in for optimizer/data
// loading/feature interaction so breakdown shares match Fig. 1).
package dist
