package query

import (
	"errors"

	"hcoc/internal/histogram"
)

// ErrEmptyHistogram is the typed error every query that is undefined on
// a zero-group histogram returns (order statistics, quantiles, mean,
// Gini, top-coded tables). Callers distinguish "the node is empty" from
// malformed parameters with errors.Is.
var ErrEmptyHistogram = errors.New("query: empty histogram")

// The single-statistic queries below answer against the run-length
// histogram, so a query costs O(distinct sizes): on census-shaped data a
// few dozen run visits instead of up to K+1 cells. Each checks its own
// parameters first, so that its errors keep their text and order, and
// then reads its answer off ReportSparse, the one scan that computes
// rank statistics, Gini and top-coded tables.

// KthSmallestSparse returns the size of the k-th smallest group
// (1-based): the unattributed-histogram lookup Hg[k-1].
func KthSmallestSparse(s histogram.Sparse, k int64) (int64, error) {
	g := s.Groups()
	if g == 0 {
		return 0, ErrEmptyHistogram
	}
	if err := checkRank(k, g); err != nil {
		return 0, err
	}
	return KthLargestSparse(s, g-k+1)
}

// KthLargestSparse returns the size of the k-th largest group (1-based),
// "what is the size of the kth largest group?" from Section 2.
func KthLargestSparse(s histogram.Sparse, k int64) (int64, error) {
	rep, err := ReportSparse(s, Params{KthLargest: []int64{k}})
	if err != nil {
		return 0, err
	}
	return rep.KthLargest[0], nil
}

// QuantileSparse returns the q-th quantile (0 <= q <= 1) of the
// group-size distribution, using the lower interpolation (the size of
// the ceil(q*G)-th smallest group; q = 0 gives the minimum).
func QuantileSparse(s histogram.Sparse, q float64) (int64, error) {
	if err := checkQuantile(q); err != nil {
		return 0, err
	}
	qs, err := QuantilesSparse(s, []float64{q})
	if err != nil {
		return 0, err
	}
	return qs[0], nil
}

// QuantilesSparse evaluates several quantiles in one run scan; the
// result is index-aligned with qs.
func QuantilesSparse(s histogram.Sparse, qs []float64) ([]int64, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	rep, err := ReportSparse(s, Params{Quantiles: qs})
	if err != nil {
		return nil, err
	}
	return rep.Quantiles, nil
}

// MedianSparse returns the median group size.
func MedianSparse(s histogram.Sparse) (int64, error) { return QuantileSparse(s, 0.5) }

// MeanSparse returns the mean group size; a zero-group histogram is
// ErrEmptyHistogram, never a silent zero.
func MeanSparse(s histogram.Sparse) (float64, error) {
	g := s.Groups()
	if g == 0 {
		return 0, ErrEmptyHistogram
	}
	return float64(s.People()) / float64(g), nil
}

// CountAtLeastSparse returns the number of groups of size >= sz.
func CountAtLeastSparse(s histogram.Sparse, sz int64) int64 {
	var n int64
	for _, r := range s {
		if r.Size >= sz {
			n += r.Count
		}
	}
	return n
}

// GiniSparse returns the Gini coefficient of the group-size
// distribution, a standard skewness summary in [0, 1] (0 = all groups
// equal). The paper motivates count-of-counts histograms as the tool
// "to study the skewness of a distribution". A zero-group histogram is
// ErrEmptyHistogram; groups that are all empty (zero people) have every
// group equal, Gini 0.
func GiniSparse(s histogram.Sparse) (float64, error) {
	if s.Groups() == 0 {
		return 0, ErrEmptyHistogram
	}
	rep, err := ReportSparse(s, Params{})
	return rep.Gini, err
}

// TopCodedSparse returns the census-style truncated table: counts for
// sizes 0..cap-1 plus a final "cap or more" bucket, the form in which
// the 2010 Summary File 1 published these tables (truncated at 7). The
// table is dense by construction: every size 0..cap gets a row.
func TopCodedSparse(s histogram.Sparse, cap int) (histogram.Hist, error) {
	if cap < 1 {
		return nil, capError(cap)
	}
	rep, err := ReportSparse(s, Params{TopCode: cap})
	if err != nil {
		return nil, err
	}
	return rep.TopCoded, nil
}
