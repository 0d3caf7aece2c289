// Package profileutil formats the simulated-time buckets collected during
// training into the breakdown tables behind Fig. 1 and Fig. 12.
//
// Layer: presentation over the sim clock — experiment drivers and
// cmd/dlrmtrain wrap Cluster().SimTimes() in a Breakdown to render and
// query it. The bucket labels it sees are the ones internal/dist charges:
// "fwd-a2a"/"bwd-a2a" (or their "-intra"/"-inter" splits under a
// multi-node topology), "allreduce", "mlp", "lookup", "compress",
// "decompress", "other". The package only reads buckets; it never charges
// them, and a Breakdown's Total is the serial schedule cost (the
// overlapped end-to-end time lives on the trainer, not in the buckets).
//
// Key types: Breakdown (map of label → duration with Total/Share),
// Row and Rows (share-sorted table rows), String (the aligned text table
// the CLI prints).
package profileutil
