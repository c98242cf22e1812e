package estimator

import (
	"fmt"
	"math"

	"hcoc/internal/histogram"
	"hcoc/internal/noise"
)

// EstimateK implements footnote 6 of the paper: when no public upper
// bound on the group size is known, spend a sliver of privacy budget
// (the paper suggests epsilon = 1e-4) to estimate one. Let X be the true
// maximum group size; the estimate is
//
//	K = X + Laplace(1/epsilon) + 5*sqrt(2)/epsilon
//
// i.e. a noisy maximum padded by five standard deviations, so that
// P(K >= X) > 0.9995. The sensitivity of the maximum group size under
// adding or removing one entity is 1.
//
// The result is rounded up and clamped to at least 1 so it is always a
// valid Params.K.
func EstimateK(h histogram.Hist, epsilon float64, gen *noise.Gen) (int, error) {
	if err := noise.CheckEpsilon(epsilon, 1); err != nil {
		return 0, fmt.Errorf("estimator: %w", err)
	}
	x := float64(h.MaxSize())
	if x < 0 {
		x = 0 // empty data: K derives entirely from the padding
	}
	k := x + gen.Laplace(1/epsilon) + 5*math.Sqrt2/epsilon
	if k < 1 {
		k = 1
	}
	return int(math.Ceil(k)), nil
}
