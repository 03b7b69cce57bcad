// Package bounds implements the paper's bound-computation schemes — the
// machinery that lets a proximity algorithm resolve a distance-comparing IF
// statement without calling the distance oracle.
//
// All schemes answer the BOUNDS PROBLEM (Problem 1): given the partial
// graph of resolved distances, produce a lower and an upper bound for an
// unknown edge that no metric completion can violate. They differ in
// tightness and cost:
//
//   - SPLUB (Section 4.1): the *tightest* bounds, via two Dijkstra runs and
//     a scan of the known edges. O(m + n log n) per query, O(1) update.
//   - Tri Scheme (Section 4.2): bounds from triangles incident to the
//     queried pair only. Expected O(m/n) per query, O(log n) update.
//   - ADM (Shasha–Wang baseline): tightest bounds from all-pairs bound
//     matrices; O(n²) incremental update.
//   - LAESA / TLAESA (landmark baselines): static pivot-table bounds.
//   - DFT (Section 2.2): not a bound scheme but a *comparator* — it decides
//     a comparison outright by LP feasibility; see Comparator.
//   - Noop: the trivial (0, maxDist) bounds, which recovers the unmodified
//     proximity algorithm.
//
// Consumers normally reach these through internal/core's Session, which
// wires a scheme to the oracle and exposes the re-authored IF surface
// (DistIfLess and friends); the types here are the pluggable backends.
//
// The package also holds the one interval-decision kernel every consumer
// decides with: DecideLess (and DecideLessThan, its collapsed-interval
// form) settles a comparison from two sound intervals when they cannot
// overlap, using endpoint comparisons only. core's sessions, their
// aggregate comparisons, the proxclient mirror and cmd/dftprobe all call
// it, so a verdict reached in one place is bit-identical to the verdict
// reached anywhere else from the same intervals. Slack widening
// (core.SlackPolicy.Relax) happens before the kernel and comparator proofs
// (DFT) after it; neither lives here.
package bounds
