// Package estimator implements the three single-node differentially
// private count-of-counts estimators of Section 4:
//
//   - Naive: double-geometric noise (scale 2/eps) on every cell of the
//     truncated histogram H', then projection onto {x >= 0, sum = G}
//     with largest-remainder rounding.
//   - Hg method: noise (scale 1/eps) on the unattributed histogram,
//     L2 isotonic regression, rounding.
//   - Hc method: noise (scale 1/eps) on the cumulative histogram,
//     L1 (default) or L2 isotonic regression with the boundary
//     constraint Hc[K] = G, rounding.
//
// Every estimator also produces the per-group variance estimates of
// Section 5.1, which the hierarchical consistency step consumes. Those
// variances are constant over runs of equally-estimated groups, so
// EstimateRuns, the one implementation of each method, returns the
// estimate in run-length form: one SizeRun per block of groups sharing
// a value and a variance. The sparse release pipeline consumes the runs
// directly, and for G groups they avoid the O(G) per-group arrays
// entirely. Estimate expands the same runs into the dense Result (one
// histogram cell per size, one variance per group) through RunsHist and
// RunsGroupVar, for the dense pipelines and the paper reproduction.
package estimator
