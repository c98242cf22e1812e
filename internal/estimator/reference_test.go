package estimator

import (
	"fmt"

	"hcoc/internal/histogram"
	"hcoc/internal/isotonic"
	"hcoc/internal/noise"
)

// estimateReference is the dense form of each method, the oracle of
// TestEstimateRunsDifferential: it builds every intermediate array the
// paper's description names (the noisy unattributed or cumulative
// histogram, the fit, the per-group variances) and shares no code with
// EstimateRuns beyond parameter validation, the samplers, the isotonic
// fits and the Naive method's simplex core.
func estimateReference(m Method, h histogram.Hist, p Params, gen *noise.Gen) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	g := h.Groups()
	if g == 0 {
		return Result{Hist: histogram.Hist{}}, nil
	}
	switch m {
	case MethodNaive:
		est := estimateNaiveCore(h, g, p, gen)
		groupVar := make([]float64, g)
		flat := noise.LaplaceVariance(2 / p.Epsilon)
		for i := range groupVar {
			groupVar[i] = flat
		}
		return Result{Hist: est, GroupVar: groupVar}, nil
	case MethodHg:
		fit, blockSizes := estimateHgCore(h, p, gen)
		est := make(histogram.GroupSizes, len(fit))
		groupVar := make([]float64, len(fit))
		perCell := noise.LaplaceVariance(1 / p.Epsilon)
		for i, z := range fit {
			est[i] = int64(z + 0.5) // z >= 0, so this is round-to-nearest
			groupVar[i] = perCell / float64(blockSizes[i])
		}
		return Result{Hist: est.Hist(), GroupVar: groupVar}, nil
	case MethodHc, MethodHcL2:
		est := estimateHcCore(h, g, p, gen, m == MethodHc)
		hEst := est.Hist().Trim()
		// Variance per group, aligned with hEst.GroupSizes(): all groups
		// of estimated size j share variance 4/(eps^2 * hEst[j]).
		groupVar := make([]float64, 0, g)
		perCell := 2 * noise.LaplaceVariance(1/p.Epsilon) // 4/eps^2
		for _, count := range hEst {
			for k := int64(0); k < count; k++ {
				groupVar = append(groupVar, perCell/float64(count))
			}
		}
		return Result{Hist: hEst, GroupVar: groupVar}, nil
	default:
		return Result{}, fmt.Errorf("estimator: unknown method %d", int(m))
	}
}

// estimateHgCore adds double-geometric noise with scale 1/eps to every
// cell of the unattributed histogram (sensitivity 1) and applies L2
// isotonic regression clamped below at zero. It returns the clamped fit
// together with the per-index isotonic block sizes; per Section 5.1.1
// the variance of group i is 2/(S_i eps^2) where S_i is the size of the
// block containing i.
func estimateHgCore(h histogram.Hist, p Params, gen *noise.Gen) (fit []float64, blockSizes []int) {
	hg := h.GroupSizes()
	noisy := gen.AddDoubleGeometric(hg, 1/p.Epsilon)
	ys := make([]float64, len(noisy))
	for i, v := range noisy {
		ys[i] = float64(v)
	}
	fit = isotonic.FitL2(ys)
	isotonic.ClampBox(fit, 0, maxFloat)
	blockSizes = make([]int, len(fit))
	for _, b := range isotonic.Blocks(fit) {
		for i := b[0]; i < b[1]; i++ {
			blockSizes[i] = b[1] - b[0]
		}
	}
	return fit, blockSizes
}

// estimateHcCore adds double-geometric noise with scale 1/eps to the
// cumulative histogram of the K-truncated data (sensitivity 1,
// Lemma 4), fits isotonic regression (L1 per the paper's finding, L2
// for the ablation) under the boundary condition Hc[K] = G, clamps into
// [0, G], and rounds, returning the estimated cumulative histogram. The
// final cell is pinned to the public G, so its noisy value is
// discarded; the remaining cells' constrained optimum is exactly the
// box-clamped unconstrained fit.
func estimateHcCore(h histogram.Hist, g int64, p Params, gen *noise.Gen, l1 bool) histogram.Cumulative {
	hc := h.Truncate(p.K).Cumulative()
	noisy := gen.AddDoubleGeometric(hc, 1/p.Epsilon)
	ys := make([]float64, len(noisy)-1) // cell K is pinned to G
	for i := range ys {
		ys[i] = float64(noisy[i])
	}
	var fit []float64
	if l1 {
		fit = isotonic.FitL1(ys)
	} else {
		fit = isotonic.FitL2(ys)
	}
	isotonic.ClampBox(fit, 0, float64(g))
	est := make(histogram.Cumulative, len(fit)+1)
	for i, z := range fit {
		est[i] = int64(z + 0.5)
	}
	est[len(est)-1] = g
	return est
}
