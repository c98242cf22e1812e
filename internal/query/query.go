package query

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hcoc/internal/histogram"
)

// ErrEmptyHistogram is the typed error every query that is undefined on
// a zero-group histogram returns (order statistics, quantiles, mean,
// Gini, top-coded tables). Callers distinguish "the node is empty" from
// malformed parameters with errors.Is.
var ErrEmptyHistogram = errors.New("query: empty histogram")

// KthSmallest returns the size of the k-th smallest group (1-based).
// This is the unattributed-histogram lookup Hg[k-1].
func KthSmallest(h histogram.Hist, k int64) (int64, error) {
	g := h.Groups()
	if g == 0 {
		return 0, ErrEmptyHistogram
	}
	if k < 1 || k > g {
		return 0, fmt.Errorf("query: k = %d out of range [1, %d]", k, g)
	}
	var cum int64
	for size, count := range h {
		cum += count
		if cum >= k {
			return int64(size), nil
		}
	}
	return 0, fmt.Errorf("query: internal inconsistency (histogram shorter than its counts)")
}

// KthLargest returns the size of the k-th largest group (1-based) —
// "what is the size of the kth largest group?" from Section 2.
func KthLargest(h histogram.Hist, k int64) (int64, error) {
	g := h.Groups()
	if g == 0 {
		return 0, ErrEmptyHistogram
	}
	if k < 1 || k > g {
		return 0, fmt.Errorf("query: k = %d out of range [1, %d]", k, g)
	}
	return KthSmallest(h, g-k+1)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the group-size
// distribution, using the lower interpolation (the size of the
// ceil(q*G)-th smallest group; q = 0 gives the minimum).
func Quantile(h histogram.Hist, q float64) (int64, error) {
	// The negated comparison also rejects NaN.
	if !(q >= 0 && q <= 1) {
		return 0, fmt.Errorf("query: quantile %g out of [0, 1]", q)
	}
	g := h.Groups()
	if g == 0 {
		return 0, ErrEmptyHistogram
	}
	k := int64(math.Ceil(q * float64(g)))
	if k < 1 {
		k = 1
	}
	if k > g {
		k = g
	}
	return KthSmallest(h, k)
}

// Quantiles evaluates several quantiles of the group-size distribution
// in one scan of the histogram; the result is index-aligned with qs.
func Quantiles(h histogram.Hist, qs []float64) ([]int64, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	g := h.Groups()
	if g == 0 {
		return nil, ErrEmptyHistogram
	}
	// Map each quantile to its 1-based rank, then answer all ranks in
	// ascending order during a single cumulative pass.
	ranks := make([]int64, len(qs))
	order := make([]int, len(qs))
	for i, q := range qs {
		if !(q >= 0 && q <= 1) {
			return nil, fmt.Errorf("query: quantile %g out of [0, 1]", q)
		}
		k := int64(math.Ceil(q * float64(g)))
		if k < 1 {
			k = 1
		}
		ranks[i] = k
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ranks[order[a]] < ranks[order[b]] })

	out := make([]int64, len(qs))
	next := 0
	var cum int64
	for size, count := range h {
		cum += count
		for next < len(order) && ranks[order[next]] <= cum {
			out[order[next]] = int64(size)
			next++
		}
		if next == len(order) {
			break
		}
	}
	if next < len(order) {
		return nil, fmt.Errorf("query: internal inconsistency (histogram shorter than its counts)")
	}
	return out, nil
}

// Median returns the median group size.
func Median(h histogram.Hist) (int64, error) { return Quantile(h, 0.5) }

// Mean returns the mean group size; a zero-group histogram is
// ErrEmptyHistogram, never a silent zero.
func Mean(h histogram.Hist) (float64, error) {
	g := h.Groups()
	if g == 0 {
		return 0, ErrEmptyHistogram
	}
	return float64(h.People()) / float64(g), nil
}

// CountAtLeast returns the number of groups of size >= s.
func CountAtLeast(h histogram.Hist, s int64) int64 {
	var n int64
	for size, count := range h {
		if int64(size) >= s {
			n += count
		}
	}
	return n
}

// Gini returns the Gini coefficient of the group-size distribution, a
// standard skewness summary in [0, 1] (0 = all groups equal). The paper
// motivates count-of-counts histograms as the tool "to study the
// skewness of a distribution". A zero-group histogram is
// ErrEmptyHistogram; groups that are all empty (zero people) have every
// group equal, Gini 0.
func Gini(h histogram.Hist) (float64, error) {
	g := h.Groups()
	people := h.People()
	if g == 0 {
		return 0, ErrEmptyHistogram
	}
	if people == 0 {
		return 0, nil
	}
	// Gini = 1 - 2*B where B is the area under the Lorenz curve;
	// computed exactly from the sorted sizes implied by the histogram:
	// sum over groups (in non-decreasing size order) of
	// (2*rank - G - 1) * size / (G * people).
	var acc float64
	var rank int64
	for size, count := range h {
		if count == 0 {
			continue
		}
		// Groups of this size occupy ranks rank+1 .. rank+count; the
		// sum of (2r - G - 1) over that range is count*(2*rank + count - G).
		acc += float64(count) * float64(2*rank+count-g) * float64(size)
		rank += count
	}
	return acc / (float64(g) * float64(people)), nil
}

// TopCoded returns the census-style truncated table: counts for sizes
// 0..cap-1 plus a final "cap or more" bucket — the form in which the
// 2010 Summary File 1 actually published these tables (truncated at 7).
func TopCoded(h histogram.Hist, cap int) (histogram.Hist, error) {
	if cap < 1 {
		return nil, fmt.Errorf("query: cap must be >= 1, got %d", cap)
	}
	if h.Groups() == 0 {
		return nil, ErrEmptyHistogram
	}
	return h.Truncate(cap), nil
}
