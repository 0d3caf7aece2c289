// Package scenario is the declarative configuration layer of the
// reproduction: one Spec type describes a complete training scenario —
// dataset and scale, model shape, cluster shape and topology, all-to-all
// algorithm, codec and error bound, adaptive error-bound schedule, fault
// plan and checkpoints — as plain data that round-trips through JSON.
//
// The layer replaces the three hand-rolled construction paths that grew
// around the trainer (cmd/dlrmtrain's flags, each experiment's private
// env/trainer loops, and the examples):
//
//   - Spec.Validate reports every configuration error at once (including
//     the classic silent ones: -ranks inconsistent with
//     -nodes × -ranks-per-node, a hierarchical topology pinned to one
//     node);
//   - Spec.Build assembles the netmodel.Topology, the dist.Trainer, the
//     criteo.Generator, and — for adaptive runs — the offline
//     classification and adapt.Controller, exactly as every call site used
//     to do by hand;
//   - Spec.BuildEnv assembles the warmed single-process probe environment
//     the offline-analysis experiments sample lookups from;
//   - Run executes one scenario and returns a structured Result (loss
//     curve, sim-time buckets, overlapped clock, compression ratio, eval
//     metrics, wall-clock);
//   - Axes expands per-axis value lists into the cross product of Specs,
//     and Sweep runs a Spec list on a bounded worker pool. Every scenario
//     seeds its own generator and model from the Spec alone, so sweep
//     results are bit-identical at any worker count.
//
// Sim-time buckets are charged by the layers below (internal/cluster,
// internal/dist); this package only aggregates them into Result.SimTime,
// and the trainer's overlapped clock into Result.OverlappedSimTime.
package scenario
