// Package cluster provides the multi-GPU runtime that stands in for the
// paper's NCCL process group: N ranks exchange real data through
// collectives built on a pluggable point-to-point Transport, and every
// collective charges simulated wall time to a labelled accounting bucket
// via a pluggable netmodel.Topology. Training math executed on top of
// this runtime is real — only the clock is modelled — so accuracy
// experiments and timing experiments share one code path.
//
// Layer: between internal/netmodel (which prices traffic) and
// internal/dist (which runs hybrid-parallel training on top of the
// collectives).
//
// Key types:
//
//   - Transport — the point-to-point substrate a Cluster's collectives
//     run over: per-rank endpoints with FIFO Send/Recv per directed pair,
//     and nothing else. Every collective but Rank.Barrier is a symmetric
//     round — each rank sends one message to every peer and receives one
//     from each, in rank order — and the allreduce is two such rounds;
//     the barrier is a star through rank 0, also built from Send and Recv.
//     No collective ends in a barrier. NewInprocFabric returns the reference
//     implementation (all ranks in one process, goroutines and channels,
//     zero-copy delivery); internal/cluster/tcptransport provides a real
//     multi-process backend over loopback/network sockets. Collectives,
//     costs, and results are bit-identical across transports — the
//     conformance suite in this package and internal/dist enforces it.
//   - Cluster — the process group: rank/node layout, the endpoints this
//     process hosts, the sim-time bucket table
//     (SimTime/SimTimes/AddSimTime/ResetSimTime). New builds a fully
//     in-process group; NewOverTransport wraps one external endpoint so
//     each OS process hosts a single rank.
//   - Rank — one simulated device's handle, passed to the function given
//     to Cluster.Run. Collectives hang off it.
//   - One all-to-all route: every payload goes straight to its
//     destination rank, and rank 0 prices the collective with
//     Net.TwoPhaseAllToAllCost — the hierarchical two-phase algorithm on a
//     multi-node topology, the direct exchange on a flat or single-node
//     one. The model prices the leader-staged route a multi-node fabric
//     takes; the bytes need not take it on one host. A2AAlgo is the
//     algorithm parameter of IAllToAllV; its one value, A2AAuto, is not
//     read by the route.
//   - PendingAllToAll / PendingAllReduce — awaitable handles returned by
//     the nonblocking collectives IAllToAllV and IAllReduceSum. Data
//     movement is eager (payloads are delivered before the handle
//     returns); what Await defers is the simulated clock: the collective's
//     cost is captured at issue and charged to its bucket only when
//     awaited, which is what lets an overlap scheduler hide wire time
//     under modelled compute. Await order is free — collectives may be
//     issued back to back and awaited out of order.
//
// Determinism: the allreduce is a reduce-scatter then an allgather, and
// the rank owning each chunk folds the contributions from +0 in rank order
// (not arrival order), so every element is 0 + x0 + x1 + … and training on
// this runtime is bitwise reproducible regardless of goroutine scheduling
// or transport. TestAllReduceFoldBitwise and TestTransportConformance here,
// and TestTrainerTransportConformance, TestCodecWorkersParity and
// TestComputeWorkersParity in internal/dist, pin it.
//
// Failure semantics: collectives return errors, not panics. A transport
// that loses a peer (connection close, process exit) poisons in-flight
// and subsequent Send/Recv calls with a descriptive error, which
// the collectives propagate to their callers — a dying peer surfaces as
// a prompt error on every surviving rank, never a deadlock.
//
// Sim-time buckets: each collective charges the label passed by its
// caller (the trainer uses "fwd-a2a", "bwd-a2a", "allreduce"). Under a
// topology spanning multiple nodes, all-to-all time splits into
// "<label>-intra" / "<label>-inter" per link class; flat and single-node
// clusters keep the single "<label>" bucket. Sim time is modelled cost,
// independent of wall-clock transport speed: a TCP-backed run charges
// exactly the buckets the in-process run charges.
package cluster
