// Package isotonic implements isotonic regression: given a sequence of
// noisy values, find the non-decreasing sequence minimizing the L2 or L1
// distance to it. The paper post-processes every noisy Hg and Hc
// histogram this way (Sections 4.2 and 4.3), solving L2 with
// pool-adjacent-violators (PAV) and L1 with what a commercial solver
// would do; here the L1 problem is solved exactly with the slope-trick
// algorithm. Its breakpoints are counted per value, in O(n + range),
// when the input is integers spanning fewer than 2n values, as the Hc
// estimator's noisy cumulative counts usually are, and kept in a heap,
// in O(n log n), otherwise; both give the same bits. FitL1InPlace finds
// that out with a pass over its input. FitL1Ints takes the bounds of
// input known to be integers from its caller instead, and keeps the
// breakpoints in a Scratch the caller reuses from fit to fit.
//
// Both fits return piecewise-constant solutions; Blocks recovers the
// solution partition, which Section 5.1 uses for variance estimation.
package isotonic
