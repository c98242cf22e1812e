package estimator

import (
	"fmt"

	"hcoc/internal/histogram"
	"hcoc/internal/isotonic"
	"hcoc/internal/noise"
	"hcoc/internal/simplex"
)

// Method selects a single-node estimation strategy.
type Method int

const (
	// MethodHc is the cumulative-histogram method of Section 4.3 (with
	// L1 isotonic regression, the paper's preferred configuration).
	MethodHc Method = iota
	// MethodHg is the unattributed-histogram method of Section 4.2.
	MethodHg
	// MethodNaive is the per-cell noise method of Section 4.1, kept as
	// the straw-man baseline of Section 6.2.1.
	MethodNaive
	// MethodHcL2 is the cumulative-histogram method with L2 isotonic
	// regression, kept for the ablation of the paper's L1-vs-L2 remark.
	MethodHcL2
)

// String returns the name used in the paper's method-combination
// notation (e.g. "Hc x Hg").
func (m Method) String() string {
	switch m {
	case MethodHc:
		return "Hc"
	case MethodHg:
		return "Hg"
	case MethodNaive:
		return "Naive"
	case MethodHcL2:
		return "Hc(L2)"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Result is a differentially private estimate of one node's
// count-of-counts histogram.
type Result struct {
	// Hist is the integral, nonnegative estimate with
	// Hist.Groups() equal to the public group count.
	Hist histogram.Hist
	// GroupVar[i] is the estimated variance of the size of the i-th
	// smallest group (aligned with Hist.GroupSizes()).
	GroupVar []float64
}

// SizeRun is one run of the run-length estimate: Count consecutive
// groups (in rank order) whose estimated size is Size and whose
// estimated variance is Var. Runs are ordered by rank; sizes are
// non-decreasing but adjacent runs may share a size when the
// Section 5.1 variance differs between them (distinct isotonic blocks
// that round to the same integer).
type SizeRun struct {
	Size  int64
	Count int64
	Var   float64
}

// RunsHist expands runs into the dense histogram they describe.
func RunsHist(runs []SizeRun) histogram.Hist {
	var maxSize int64 = -1
	for _, r := range runs {
		if r.Size > maxSize {
			maxSize = r.Size
		}
	}
	h := make(histogram.Hist, maxSize+1)
	for _, r := range runs {
		h[r.Size] += r.Count
	}
	return h
}

// RunsSparse collapses runs into the sparse histogram they describe,
// merging adjacent runs of equal size.
func RunsSparse(runs []SizeRun) histogram.Sparse {
	out := make(histogram.Sparse, 0, len(runs))
	for _, r := range runs {
		if n := len(out); n > 0 && out[n-1].Size == r.Size {
			out[n-1].Count += r.Count
		} else {
			out = append(out, histogram.Run{Size: r.Size, Count: r.Count})
		}
	}
	return out
}

// RunsGroupVar expands runs into the dense per-group variance array,
// aligned with rank order (the same alignment as Result.GroupVar).
func RunsGroupVar(runs []SizeRun) []float64 {
	var g int64
	for _, r := range runs {
		g += r.Count
	}
	out := make([]float64, 0, g)
	for _, r := range runs {
		for j := int64(0); j < r.Count; j++ {
			out = append(out, r.Var)
		}
	}
	return out
}

// Params bundles the public inputs of an estimate.
type Params struct {
	// Epsilon is the privacy-loss budget for this node.
	Epsilon float64
	// K is the public upper bound on group size used by the Naive and
	// Hc methods (Section 4.1; the paper uses 100000).
	K int
}

func (p Params) validate() error {
	if err := noise.CheckEpsilon(p.Epsilon, 1); err != nil {
		return fmt.Errorf("estimator: %w", err)
	}
	if p.K < 1 {
		return fmt.Errorf("estimator: K must be at least 1, got %d", p.K)
	}
	return nil
}

// Estimate runs the selected method on the true histogram h, spending
// p.Epsilon of privacy budget, drawing noise from gen.
func Estimate(m Method, h histogram.Hist, p Params, gen *noise.Gen) (Result, error) {
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

// EstimateRuns is Estimate in run-length form: the same noise draws,
// the same estimate, but returned as rank-ordered runs of (size,
// variance) blocks instead of a dense histogram plus a per-group
// variance array. RunsHist and RunsGroupVar recover the dense Result
// exactly.
func EstimateRuns(m Method, h histogram.Hist, p Params, gen *noise.Gen) ([]SizeRun, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	g := h.Groups()
	if g == 0 {
		return nil, nil
	}
	switch m {
	case MethodNaive:
		est := estimateNaiveCore(h, g, p, gen)
		flat := noise.LaplaceVariance(2 / p.Epsilon)
		runs := make([]SizeRun, 0, est.DistinctSizes())
		for size, count := range est {
			if count > 0 {
				runs = append(runs, SizeRun{Size: int64(size), Count: count, Var: flat})
			}
		}
		return runs, nil
	case MethodHg:
		return estimateHgRuns(h, g, p, gen), nil
	case MethodHc, MethodHcL2:
		return estimateHcRuns(h, g, p, gen, m == MethodHc), nil
	default:
		return nil, fmt.Errorf("estimator: unknown method %d", int(m))
	}
}

// estimateHgRuns is the Hg pipeline fused for the run-length output:
// the same noise draws and float operations as estimateHgCore, but the
// noisy unattributed histogram is built straight into the float buffer
// (no hg or noisy int arrays) and the isotonic blocks are emitted as
// runs without the per-index blockSizes, est, and groupVar arrays —
// 3 G-length allocations instead of 8.
func estimateHgRuns(h histogram.Hist, g int64, p Params, gen *noise.Gen) []SizeRun {
	scale := 1 / p.Epsilon
	ys := make([]float64, 0, g)
	for size, count := range h {
		for j := int64(0); j < count; j++ {
			ys = append(ys, float64(int64(size)+gen.DoubleGeometric(scale)))
		}
	}
	fit := isotonic.FitL2(ys)
	isotonic.ClampBox(fit, 0, maxFloat)
	perCell := noise.LaplaceVariance(scale)
	var runs []SizeRun
	for _, b := range isotonic.Blocks(fit) {
		n := int64(b[1] - b[0])
		runs = append(runs, SizeRun{
			Size:  int64(fit[b[0]] + 0.5),
			Count: n,
			Var:   perCell / float64(n),
		})
	}
	return runs
}

// estimateHcRuns is the Hc pipeline fused for the run-length output:
// identical draws and float operations to estimateHcCore, but the
// noisy truncated cumulative histogram is accumulated cell by cell
// straight into the float buffer (no dense Hist, Cumulative, or noisy
// arrays), the L1 fit reuses that buffer, and the rounded cumulative is
// scanned into runs without materializing it — for bound K that is 2
// K-length allocations in all (the buffer and the L1 fit's counting
// set, a count per value over the fewer than 2K integers the noisy
// cells span, or its heap on wider inputs; the L2 fit allocates its
// own output instead) and none of the per-group arrays.
func estimateHcRuns(h histogram.Hist, g int64, p Params, gen *noise.Gen, l1 bool) []SizeRun {
	scale := 1 / p.Epsilon
	ys := make([]float64, p.K) // cell K is pinned to G
	var cum int64
	for cell := 0; cell < p.K; cell++ {
		if cell < len(h) {
			cum += h[cell]
		} else if cum == g {
			// Every group counted; the remaining cells are flat. Noise
			// must still be drawn per cell to keep the stream aligned.
			for ; cell < p.K; cell++ {
				ys[cell] = float64(cum + gen.DoubleGeometric(scale))
			}
			break
		}
		ys[cell] = float64(cum + gen.DoubleGeometric(scale))
	}
	gen.DoubleGeometric(scale) // cell K's draw, discarded (pinned below)

	var fit []float64
	if l1 {
		fit = isotonic.FitL1InPlace(ys)
	} else {
		fit = isotonic.FitL2(ys)
	}
	isotonic.ClampBox(fit, 0, float64(g))

	perCell := 2 * noise.LaplaceVariance(scale) // 4/eps^2
	var runs []SizeRun
	var prev int64
	for i, z := range fit {
		est := int64(z + 0.5)
		if count := est - prev; count > 0 {
			runs = append(runs, SizeRun{Size: int64(i), Count: count, Var: perCell / float64(count)})
		}
		prev = est
	}
	// The final cell is pinned to the public G.
	if count := g - prev; count > 0 {
		runs = append(runs, SizeRun{Size: int64(p.K), Count: count, Var: perCell / float64(count)})
	}
	return runs
}

// estimateNaiveCore adds double-geometric noise with scale 2/eps to
// every cell of the truncated histogram (sensitivity 2, Lemma 3), then
// projects onto the scaled simplex and rounds, returning the trimmed
// estimate. The per-group variance is the flat noise variance
// heuristic; the naive method is not used inside the consistency
// algorithm in the paper.
func estimateNaiveCore(h histogram.Hist, g int64, p Params, gen *noise.Gen) histogram.Hist {
	truncated := h.Truncate(p.K)
	noisy := gen.AddDoubleGeometric(truncated, 2/p.Epsilon)
	asFloat := make([]float64, len(noisy))
	for i, v := range noisy {
		asFloat[i] = float64(v)
	}
	est := histogram.Hist(simplex.ProjectAndRound(asFloat, g))
	return est.Trim()
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
	return fit, isotonic.BlockSizes(fit)
}

// estimateHcCore adds double-geometric noise with scale 1/eps to the
// cumulative histogram of the K-truncated data (sensitivity 1,
// Lemma 4), fits isotonic regression (L1 per the paper's finding, L2
// for the ablation) under the boundary condition Hc[K] = G, clamps into
// [0, G], and rounds, returning the estimated cumulative histogram. The
// final cell is pinned to the public G, so its noisy value is
// discarded; the remaining cells' constrained optimum is exactly the
// box-clamped unconstrained fit.
//
// Per Section 5.1.2 the variance of a group with estimated size j is
// 4/(eps^2 * (number of estimated groups of size j)).
func estimateHcCore(h histogram.Hist, g int64, p Params, gen *noise.Gen, l1 bool) histogram.Cumulative {
	hc := h.Sparse().Truncate(int64(p.K)).Cumulative(p.K + 1)
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

// maxFloat is a clamp upper bound meaning "no upper bound".
const maxFloat = 1e308
