package estimator

import (
	"fmt"

	"hcoc/internal/histogram"
	"hcoc/internal/noise"
)

// ChooseMethod is a lightweight, differentially private algorithm
// selector in the spirit of footnote 4 of the paper (which points to
// Pythia / Chaudhuri et al. for the general problem): it spends epsilon
// of budget on a noisy density probe and recommends MethodHc for dense
// data and MethodHg for sparse data with gaps, matching the paper's
// empirical guidance (Sections 6.2.4-6.2.5).
//
// The probe is the fill ratio distinct/(maxSize+1). Under entity
// adjacency the distinct-size count has sensitivity 2 (one person moving
// can create one size and destroy another) and the maximum size has
// sensitivity 1; the budget is split between the two noisy counts.
//
// The returned method is a data-dependent but differentially private
// choice; callers should account the epsilon spent here on top of the
// release budget.
func ChooseMethod(h histogram.Hist, epsilon float64, gen *noise.Gen) (Method, error) {
	if err := noise.CheckEpsilon(epsilon, 1); err != nil {
		return 0, fmt.Errorf("estimator: %w", err)
	}
	distinct := float64(h.DistinctSizes()) + float64(gen.DoubleGeometric(2/(epsilon/2)))
	maxSize := float64(h.MaxSize()) + float64(gen.DoubleGeometric(1/(epsilon/2)))
	if distinct < 1 {
		distinct = 1
	}
	if maxSize < 1 {
		maxSize = 1
	}
	// Dense data fill most of the size range with observed sizes;
	// sparse data (like the housing tail) leave long gaps. The paper's
	// datasets separate cleanly at a few percent fill.
	const denseThreshold = 0.05
	if distinct/(maxSize+1) >= denseThreshold {
		return MethodHc, nil
	}
	return MethodHg, nil
}
