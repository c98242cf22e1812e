package query

import (
	"fmt"
	"math"

	"hcoc/internal/histogram"
)

// The dense cell walks below are the oracle of the differential tests
// and FuzzReportSparse: each answers its statistic by scanning every
// cell of the dense histogram, sharing no code with ReportSparse, and
// states the error text and order that the production forms must
// reproduce.

// kthSmallestReference returns the size of the k-th smallest group
// (1-based): the unattributed-histogram lookup Hg[k-1].
func kthSmallestReference(h histogram.Hist, k int64) (int64, error) {
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

// kthLargestReference returns the size of the k-th largest group
// (1-based).
func kthLargestReference(h histogram.Hist, k int64) (int64, error) {
	g := h.Groups()
	if g == 0 {
		return 0, ErrEmptyHistogram
	}
	if k < 1 || k > g {
		return 0, fmt.Errorf("query: k = %d out of range [1, %d]", k, g)
	}
	return kthSmallestReference(h, g-k+1)
}

// quantileReference returns the q-th quantile with lower interpolation:
// the size of the ceil(q*G)-th smallest group, q = 0 giving the
// minimum.
func quantileReference(h histogram.Hist, q float64) (int64, error) {
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
	return kthSmallestReference(h, k)
}

// quantilesReference evaluates several quantiles, index-aligned with
// qs: emptiness is checked before any quantile, as in one scan.
func quantilesReference(h histogram.Hist, qs []float64) ([]int64, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	if h.Groups() == 0 {
		return nil, ErrEmptyHistogram
	}
	out := make([]int64, len(qs))
	for i, q := range qs {
		v, err := quantileReference(h, q)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// meanReference returns the mean group size.
func meanReference(h histogram.Hist) (float64, error) {
	g := h.Groups()
	if g == 0 {
		return 0, ErrEmptyHistogram
	}
	return float64(h.People()) / float64(g), nil
}

// countAtLeastReference returns the number of groups of size >= s.
func countAtLeastReference(h histogram.Hist, s int64) int64 {
	var n int64
	for size, count := range h {
		if int64(size) >= s {
			n += count
		}
	}
	return n
}

// giniReference returns the Gini coefficient, computed exactly from the
// sorted sizes the histogram implies: the sum over groups, in
// non-decreasing size order, of (2*rank - G - 1) * size / (G * people).
func giniReference(h histogram.Hist) (float64, error) {
	g := h.Groups()
	people := h.People()
	if g == 0 {
		return 0, ErrEmptyHistogram
	}
	if people == 0 {
		return 0, nil
	}
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

// topCodedReference returns the census-style truncated table: counts for
// sizes 0..cap-1 plus a final "cap or more" bucket.
func topCodedReference(h histogram.Hist, cap int) (histogram.Hist, error) {
	if cap < 1 {
		return nil, fmt.Errorf("query: cap must be >= 1, got %d", cap)
	}
	if h.Groups() == 0 {
		return nil, ErrEmptyHistogram
	}
	return h.Truncate(cap), nil
}

// reportReference assembles the node report from the references above,
// checking parameters in ReportSparse's documented order: a negative
// cap, then emptiness (an error only when something was requested),
// then each quantile, then each rank.
func reportReference(h histogram.Hist, p Params) (Report, error) {
	if p.TopCode < 0 {
		return Report{}, fmt.Errorf("query: cap must be >= 1, got %d", p.TopCode)
	}
	rep := Report{Groups: h.Groups(), People: h.People()}
	if rep.Groups == 0 {
		if len(p.Quantiles) > 0 || len(p.KthLargest) > 0 || p.TopCode > 0 {
			return Report{}, ErrEmptyHistogram
		}
		return rep, nil
	}
	var err error
	if rep.Quantiles, err = quantilesReference(h, p.Quantiles); err != nil {
		return Report{}, err
	}
	for _, k := range p.KthLargest {
		v, err := kthLargestReference(h, k)
		if err != nil {
			return Report{}, err
		}
		rep.KthLargest = append(rep.KthLargest, v)
	}
	if rep.Median, err = quantileReference(h, 0.5); err != nil {
		return Report{}, err
	}
	if rep.Mean, err = meanReference(h); err != nil {
		return Report{}, err
	}
	if rep.Gini, err = giniReference(h); err != nil {
		return Report{}, err
	}
	if p.TopCode > 0 {
		if rep.TopCoded, err = topCodedReference(h, p.TopCode); err != nil {
			return Report{}, err
		}
	}
	return rep, nil
}
