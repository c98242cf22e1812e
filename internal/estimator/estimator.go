package estimator

import (
	"fmt"
	"math"
	"runtime"

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
// p.Epsilon of privacy budget, drawing noise from gen. It is
// EstimateRuns expanded by RunsHist and RunsGroupVar; a zero-group h
// estimates to an empty histogram with no variances.
func Estimate(m Method, h histogram.Hist, p Params, gen *noise.Gen) (Result, error) {
	runs, err := EstimateRuns(m, h, p, gen)
	if err != nil {
		return Result{}, err
	}
	if len(runs) == 0 {
		return Result{Hist: histogram.Hist{}}, nil
	}
	return Result{Hist: RunsHist(runs), GroupVar: RunsGroupVar(runs)}, nil
}

// EstimateRuns is the one implementation of the single-node estimates:
// it runs the selected method on the true histogram h, spending
// p.Epsilon of privacy budget, drawing noise from gen, and returns the
// estimate as rank-ordered runs of (size, variance) blocks. A zero-group
// h returns no runs.
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

// estimateHgRuns adds double-geometric noise with scale 1/eps to every
// cell of the unattributed histogram (sensitivity 1), built straight
// into the float buffer, applies L2 isotonic regression clamped below
// at zero, and emits each isotonic block as one run. Per Section 5.1.1
// the variance of a group is 2/(S eps^2), where S is the size of its
// block.
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

// estimateHcRuns adds double-geometric noise with scale 1/eps to the
// cumulative histogram of the K-truncated data (sensitivity 1,
// Lemma 4), fits isotonic regression (L1 per the paper's finding, L2
// for the ablation) under the boundary condition Hc[K] = G, clamps into
// [0, G], rounds, and scans the estimated cumulative into runs. The
// final cell is pinned to the public G, so its noisy value is
// discarded; the remaining cells' constrained optimum is exactly the
// box-clamped unconstrained fit. Per Section 5.1.2 the variance of a
// group with estimated size j is 4/(eps^2 * (number of estimated groups
// of size j)).
//
// The noisy cumulative is accumulated cell by cell straight into a
// reused float buffer, the L1 fit runs in that buffer, and the clamped,
// rounded cumulative is scanned into runs without materializing it.
// Every noisy cell is an integer, so the draw loop also keeps the
// smallest and largest, which let the L1 fit pick how it keeps its
// breakpoints without a pass of its own. The buffer and the fit's
// breakpoint storage come from hcScratches, so in steady state the
// kernel allocates only its runs (the L2 fit allocates its own output).
func estimateHcRuns(h histogram.Hist, g int64, p Params, gen *noise.Gen, l1 bool) []SizeRun {
	s := getHcScratch(p.K)
	defer putHcScratch(s)
	scale := 1 / p.Epsilon
	ys := s.ys // cell K is pinned to G
	var cum int64
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for cell := range ys {
		if cell < len(h) {
			cum += h[cell]
		}
		v := cum + gen.DoubleGeometric(scale)
		lo, hi = min(lo, v), max(hi, v)
		ys[cell] = float64(v)
	}
	gen.DoubleGeometric(scale) // cell K's draw, discarded (pinned below)

	var fit []float64
	if l1 {
		fit = isotonic.FitL1Ints(ys, lo, hi, &s.fit)
	} else {
		fit = isotonic.FitL2(ys)
	}

	// Clamping into [0, G] keeps the box-constrained optimum; it runs
	// here, cell by cell, before the rounding.
	perCell := 2 * noise.LaplaceVariance(scale) // 4/eps^2
	gf := float64(g)
	var runs []SizeRun
	var prev int64
	for i, z := range fit {
		if z < 0 {
			z = 0
		} else if z > gf {
			z = gf
		}
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

// hcScratch is the working memory of one estimateHcRuns call: the
// K-cell float buffer and the L1 fit's breakpoint storage.
type hcScratch struct {
	ys  []float64
	fit isotonic.Scratch
}

// maxPooledCells is the largest K whose scratch is kept for reuse: 2^17
// cells, a 1 MiB buffer, which DefaultK fits in. A larger K allocates
// its scratch per call, so an idle entry holds at most 1 MiB of cells,
// 1 MiB of breakpoint counts, 1 MiB of heap and a few KB of bitmaps.
const maxPooledCells = 1 << 17

// hcScratches holds idle scratch for estimateHcRuns. A sync.Pool drops
// its idle entries at every garbage collection, and without reuse these
// buffers are most of what a release allocates, so collections would
// come often and empty it. The kernel is CPU-bound, so one idle entry
// per CPU is kept, and no more.
var hcScratches = make(chan *hcScratch, runtime.GOMAXPROCS(0))

// getHcScratch returns scratch whose buffer holds k cells: an idle
// entry when k is small enough to pool, or a new one. The buffer's
// cells hold whatever an earlier call left; the caller writes every
// one before reading it.
func getHcScratch(k int) *hcScratch {
	var s *hcScratch
	if k <= maxPooledCells {
		select {
		case s = <-hcScratches:
		default:
		}
	}
	if s == nil {
		s = new(hcScratch)
	}
	if cap(s.ys) < k {
		s.ys = make([]float64, k)
	}
	s.ys = s.ys[:k]
	return s
}

// putHcScratch keeps s for reuse unless its buffer is over
// maxPooledCells or the idle list is full.
func putHcScratch(s *hcScratch) {
	if cap(s.ys) > maxPooledCells {
		return
	}
	select {
	case hcScratches <- s:
	default:
	}
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

// maxFloat is a clamp upper bound meaning "no upper bound".
const maxFloat = 1e308
