package query

import (
	"fmt"
	"math"
	"sort"

	"hcoc/internal/histogram"
)

// Params selects the statistics a node report evaluates beyond the
// always-computed ones (group count, people count, mean, median, Gini).
// It is the one parameter set of every node query the serving engine
// answers: plan.Query carries it, for GET and batch queries alike.
type Params struct {
	// Quantiles lists quantiles in [0, 1] to evaluate.
	Quantiles []float64
	// KthLargest lists ranks for size-of-the-kth-largest-group queries.
	KthLargest []int64
	// TopCode, when positive, requests the census-style truncated table
	// with a final "TopCode or more" bucket.
	TopCode int
}

// Report is the full post-processing answer for one node: the
// always-computed summary statistics plus whatever Params requested,
// index-aligned with the request slices. All fields are post-processing
// of a released histogram and incur no privacy cost.
type Report struct {
	// Groups and People are the released totals of the node.
	Groups, People int64
	// Mean, Median and Gini summarize the group-size distribution; they
	// are left zero (not an error) when the node has zero groups, which
	// the Groups field makes unambiguous.
	Mean   float64
	Median int64
	Gini   float64
	// Quantiles is index-aligned with Params.Quantiles.
	Quantiles []int64
	// KthLargest is index-aligned with Params.KthLargest.
	KthLargest []int64
	// TopCoded is the truncated table when Params.TopCode was positive.
	TopCoded histogram.Hist
}

// ReportSparse evaluates a node report against one run-length histogram
// in a single scan over its runs: the rank-based statistics (median,
// quantiles, k-th largest) are converted to ranks up front and answered
// from the cumulative count, while the Gini accumulator and the
// top-coded table ride the same loop. It is the one implementation of
// these statistics: the serving engine's /v1/query and /v1/query/batch
// endpoints and every single-statistic query read their answers off it,
// so N statistics cost one pass, not N.
//
// Parameters are checked in order: a negative TopCode, then emptiness,
// then each quantile, then each rank. Explicitly requested statistics
// on a zero-group node surface ErrEmptyHistogram (matching the
// individual query functions); the always-computed ones are omitted as
// zeros.
func ReportSparse(s histogram.Sparse, p Params) (Report, error) {
	// Zero means "not requested"; an explicit negative cap is a caller
	// bug, named the same way TopCodedSparse names it.
	if p.TopCode < 0 {
		return Report{}, capError(p.TopCode)
	}
	rep := Report{Groups: s.Groups(), People: s.People()}
	g := rep.Groups
	if g == 0 {
		if len(p.Quantiles) > 0 || len(p.KthLargest) > 0 || p.TopCode > 0 {
			return Report{}, ErrEmptyHistogram
		}
		return rep, nil
	}

	// Convert every rank-based request to a 1-based rank into the sorted
	// group sizes. targets[i] pairs a rank with the slot that receives
	// the answer.
	type target struct {
		rank int64
		dst  *int64
	}
	targets := make([]target, 0, 1+len(p.Quantiles)+len(p.KthLargest))
	qrank := func(q float64) int64 {
		k := int64(math.Ceil(q * float64(g)))
		if k < 1 {
			k = 1
		}
		if k > g {
			k = g
		}
		return k
	}
	targets = append(targets, target{qrank(0.5), &rep.Median})
	rep.Quantiles = make([]int64, len(p.Quantiles))
	for i, q := range p.Quantiles {
		if err := checkQuantile(q); err != nil {
			return Report{}, err
		}
		targets = append(targets, target{qrank(q), &rep.Quantiles[i]})
	}
	rep.KthLargest = make([]int64, len(p.KthLargest))
	for i, k := range p.KthLargest {
		if err := checkRank(k, g); err != nil {
			return Report{}, err
		}
		targets = append(targets, target{g - k + 1, &rep.KthLargest[i]})
	}
	sort.Slice(targets, func(a, b int) bool { return targets[a].rank < targets[b].rank })

	if p.TopCode > 0 {
		rep.TopCoded = make(histogram.Hist, p.TopCode+1)
	}

	next := 0
	var cum int64 // groups at sizes <= the current run
	var giniAcc float64
	for _, r := range s {
		for next < len(targets) && targets[next].rank <= cum+r.Count {
			*targets[next].dst = r.Size
			next++
		}
		giniAcc += float64(r.Count) * float64(2*cum+r.Count-g) * float64(r.Size)
		cum += r.Count
		if rep.TopCoded != nil {
			if r.Size >= int64(p.TopCode) {
				rep.TopCoded[p.TopCode] += r.Count
			} else {
				rep.TopCoded[r.Size] += r.Count
			}
		}
	}
	if next < len(targets) {
		return Report{}, fmt.Errorf("query: internal inconsistency (histogram shorter than its counts)")
	}
	rep.Mean = float64(rep.People) / float64(g)
	if rep.People > 0 {
		rep.Gini = giniAcc / (float64(g) * float64(rep.People))
	}
	return rep, nil
}

// checkQuantile, checkRank and capError name a malformed parameter with
// the one text that every query form reports.
func checkQuantile(q float64) error {
	// The negated comparison also rejects NaN.
	if !(q >= 0 && q <= 1) {
		return fmt.Errorf("query: quantile %g out of [0, 1]", q)
	}
	return nil
}

func checkRank(k, g int64) error {
	if k < 1 || k > g {
		return fmt.Errorf("query: k = %d out of range [1, %d]", k, g)
	}
	return nil
}

func capError(cap int) error { return fmt.Errorf("query: cap must be >= 1, got %d", cap) }
