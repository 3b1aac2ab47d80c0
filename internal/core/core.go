// Package core implements the paper's characterization framework — the
// primary contribution of Nabavi Larimi et al. (DATE 2021) recast as a
// reusable library:
//
//   - Tester runs Algorithm 1 (batched sequential write/read-check over a
//     voltage ladder) against a simulated VCU128 board;
//   - RunReliabilitySweep shards a sweep's voltage points across a fleet
//     of board clones (bit-identical to the sequential path at any
//     worker count, with context cancellation and progress callbacks);
//   - PowerSweep regenerates the power study (Fig. 2) and the effective
//     switched-capacitance analysis (Fig. 3);
//   - ReliabilitySweep regenerates the per-stack fault-fraction curves
//     (Fig. 4) and the per-PC fault atlas (Fig. 5);
//   - FaultMap + Planner expose the three-factor trade-off among power,
//     memory capacity, and fault rate (Fig. 6 / §III-C);
//   - FindGuardband locates V_min and V_critical.
//
// Experiments have two evaluation paths that share one fault model:
// analytic expectations (exact, full-size, used for figures) and
// Monte-Carlo runs through the board's AXI traffic generators (Algorithm
// 1 verbatim, used for validation and scaled studies).
package core

// PaperBatchSize is the repetition count the paper uses for every test:
// 130 runs, which yields a ~7% error margin at 90% confidence for a
// worst-case proportion (see internal/stats).
const PaperBatchSize = 130

// DefaultConfidence is the confidence level of the paper's methodology.
const DefaultConfidence = 0.90
