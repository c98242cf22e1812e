package hcoc

import (
	"hcoc/internal/consistency"
	"hcoc/internal/estimator"
	"hcoc/internal/noise"
	"hcoc/internal/query"
)

// The query helpers below are pure post-processing of released
// histograms and incur no additional privacy cost. Each Sparse form
// answers against the run-length representation in O(distinct sizes);
// the dense form converts its histogram to runs and calls it, so the
// two give the same answers and the same errors. Every query that is
// undefined on a zero-group node returns ErrEmptyHistogram.

// ErrEmptyHistogram is the typed error returned by order statistics,
// quantiles, mean, Gini, and top-coded tables evaluated on a node with
// zero groups.
var ErrEmptyHistogram = query.ErrEmptyHistogram

// KthSmallest returns the size of the k-th smallest group (1-based).
func KthSmallest(h Histogram, k int64) (int64, error) {
	return query.KthSmallestSparse(h.Sparse(), k)
}

// KthSmallestSparse is KthSmallest over the run-length representation.
func KthSmallestSparse(s SparseHistogram, k int64) (int64, error) {
	return query.KthSmallestSparse(s, k)
}

// KthLargest returns the size of the k-th largest group (1-based) — the
// unattributed-histogram query ("what is the size of the kth largest
// group?").
func KthLargest(h Histogram, k int64) (int64, error) {
	return query.KthLargestSparse(h.Sparse(), k)
}

// KthLargestSparse is KthLargest over the run-length representation.
func KthLargestSparse(s SparseHistogram, k int64) (int64, error) {
	return query.KthLargestSparse(s, k)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the group-size
// distribution.
func Quantile(h Histogram, q float64) (int64, error) {
	return query.QuantileSparse(h.Sparse(), q)
}

// QuantileSparse is Quantile over the run-length representation.
func QuantileSparse(s SparseHistogram, q float64) (int64, error) {
	return query.QuantileSparse(s, q)
}

// Quantiles evaluates several quantiles at once; the result is
// index-aligned with qs. It is the batch form hcoc-serve uses to answer
// multi-quantile queries in one read.
func Quantiles(h Histogram, qs []float64) ([]int64, error) {
	return query.QuantilesSparse(h.Sparse(), qs)
}

// QuantilesSparse is Quantiles over the run-length representation.
func QuantilesSparse(s SparseHistogram, qs []float64) ([]int64, error) {
	return query.QuantilesSparse(s, qs)
}

// Median returns the median group size.
func Median(h Histogram) (int64, error) { return query.MedianSparse(h.Sparse()) }

// MedianSparse is Median over the run-length representation.
func MedianSparse(s SparseHistogram) (int64, error) { return query.MedianSparse(s) }

// MeanGroupSize returns the mean group size; a zero-group histogram is
// ErrEmptyHistogram.
func MeanGroupSize(h Histogram) (float64, error) { return query.MeanSparse(h.Sparse()) }

// MeanGroupSizeSparse is MeanGroupSize over the run-length
// representation.
func MeanGroupSizeSparse(s SparseHistogram) (float64, error) { return query.MeanSparse(s) }

// CountAtLeast returns the number of groups of size >= s.
func CountAtLeast(h Histogram, s int64) int64 { return query.CountAtLeastSparse(h.Sparse(), s) }

// CountAtLeastSparse is CountAtLeast over the run-length
// representation.
func CountAtLeastSparse(s SparseHistogram, size int64) int64 {
	return query.CountAtLeastSparse(s, size)
}

// Gini returns the Gini coefficient of the group-size distribution, a
// skewness summary in [0, 1]; a zero-group histogram is
// ErrEmptyHistogram.
func Gini(h Histogram) (float64, error) { return query.GiniSparse(h.Sparse()) }

// GiniSparse is Gini over the run-length representation.
func GiniSparse(s SparseHistogram) (float64, error) { return query.GiniSparse(s) }

// TopCoded returns the census-style truncated table: counts for sizes
// 0..cap-1 plus a "cap or more" bucket (the 2010 Summary File 1 shape).
func TopCoded(h Histogram, cap int) (Histogram, error) {
	return query.TopCodedSparse(h.Sparse(), cap)
}

// TopCodedSparse is TopCoded over the run-length representation; the
// result is the dense cap+1 table (dense by construction).
func TopCodedSparse(s SparseHistogram, cap int) (Histogram, error) {
	return query.TopCodedSparse(s, cap)
}

// PrivateGroupCounts estimates the per-region group counts under
// differential privacy when the Groups table is not public (the paper's
// footnote 5 extension). The returned counts are nonnegative integers
// with parent = sum of children.
func PrivateGroupCounts(tree *Tree, epsilon float64, seed int64) (map[string]int64, error) {
	return consistency.PrivateGroupCounts(tree, epsilon, seed)
}

// EstimateK spends a sliver of budget to derive a public group-size
// bound K when none is known (the paper's footnote 6 procedure).
func EstimateK(h Histogram, epsilon float64, seed int64) (int, error) {
	return estimator.EstimateK(h, epsilon, noise.New(seed))
}

// ChooseMethod spends epsilon of budget to pick between MethodHc and
// MethodHg from a private density probe (the algorithm-selection
// extension the paper's footnote 4 defers to generic tools). Account the
// epsilon spent here on top of the release budget.
func ChooseMethod(h Histogram, epsilon float64, seed int64) (Method, error) {
	return estimator.ChooseMethod(h, epsilon, noise.New(seed))
}
