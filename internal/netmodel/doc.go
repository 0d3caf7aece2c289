// Package netmodel provides the analytic performance model that substitutes
// for the paper's physical testbed (8 nodes × 4 A100s on a Slingshot-10
// interconnect). Communication time uses an α-β (latency–bandwidth) model;
// compute time uses device roofline rates; codec time uses throughput
// numbers either measured from the Go implementations or calibrated to the
// GPU figures the paper reports. Every experiment that reports seconds or
// speedups derives them through this model, so the who-wins/crossover shape
// of the paper's figures is reproduced even though the absolute Go-on-CPU
// speeds differ from CUDA kernels.
//
// Layer: the bottom of the simulation stack. internal/cluster charges its
// collectives through this package, internal/dist charges device compute,
// and the experiment drivers read the resulting buckets back through
// internal/profileutil. netmodel itself charges nothing — it only prices
// work.
//
// Key types:
//
//   - Topology — the pluggable interconnect interface collectives cost
//     their traffic against. Two implementations: Network, the flat α-β
//     single-link model (Slingshot10 returns the paper's calibration), and
//     Hierarchical, the two-level testbed shape (per-rank NVLink-class
//     intra-node link, per-node NIC-class inter-node link;
//     PaperHierarchical returns the calibrated instance). Costs come back
//     as a LinkCost attributing time to the two link classes.
//   - Device — per-GPU roofline rates for MLP math and embedding-bag
//     gathers (A100 returns the calibrated instance).
//   - CodecRates / CodecTime — calibrated GPU (de)compression throughputs
//     keyed by codec name (PaperCodecRates).
//   - Timeline — a value with one busy-until clock per lane (Device,
//     Intra, Inter) for the comm/compute overlap schedule: work is
//     reserved on a lane no earlier than its dependencies and no earlier
//     than the lane frees up, so in-flight transfers on different links
//     overlap while contenders for one link serialize. Every step of the
//     trainer in internal/dist books its component costs onto a Timeline,
//     whose makespan is the overlapped end-to-end time.
package netmodel
