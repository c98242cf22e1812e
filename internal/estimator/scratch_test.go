package estimator

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hcoc/internal/histogram"
	"hcoc/internal/isotonic"
	"hcoc/internal/noise"
)

// drainHcScratches empties the idle list, so the next estimate runs on
// fresh memory, and returns what it held.
func drainHcScratches() []*hcScratch {
	var out []*hcScratch
	for {
		select {
		case s := <-hcScratches:
			out = append(out, s)
		default:
			return out
		}
	}
}

// dirtyHcScratch returns scratch as a reused entry may look after
// another release: a buffer of maxPooledCells NaN cells, and breakpoint
// storage left full by two earlier fits, a counting one holding counts
// across a range of 2^18-1 values and a heap one.
func dirtyHcScratch() *hcScratch {
	s := &hcScratch{ys: make([]float64, maxPooledCells)}
	for i := range s.ys {
		s.ys[i] = float64((i * 7919) % (2*maxPooledCells - 1))
	}
	s.ys[0], s.ys[1] = 0, 2*maxPooledCells-2
	isotonic.FitL1Ints(s.ys, 0, 2*maxPooledCells-2, &s.fit)
	isotonic.FitL1Ints(s.ys[:4096], -1, 1<<20, &s.fit)
	for i := range s.ys {
		s.ys[i] = math.NaN()
	}
	return s
}

// TestHcScratchNoStaleCells runs Hc and Hc(L2) estimates twice, on
// fresh memory and with dirty scratch in the idle list, and requires
// the same runs bit for bit. The bounds cover one and a few
// cells, the ingest and default sizes, the largest pooled K and the
// first K whose scratch is allocated per call; the two histograms put
// the L1 fit on its counting path at some bounds and on its heap at
// others (a group count well above 2K spans more than 2K values).
func TestHcScratchNoStaleCells(t *testing.T) {
	small := histogram.Hist{0, 40, 25, 10, 5, 2, 0, 1}
	large := make(histogram.Hist, 60)
	for i := range large {
		large[i] = int64(12000 >> (i / 6))
	}
	defer drainHcScratches()
	for _, m := range []Method{MethodHc, MethodHcL2} {
		for j, h := range []histogram.Hist{small, large} {
			for _, k := range []int{1, 7, 20000, 100000, maxPooledCells, maxPooledCells + 1} {
				for _, eps := range []float64{0.05, 1} {
					name := fmt.Sprintf("%v/hist%d/K=%d/eps=%g", m, j, k, eps)
					p := Params{Epsilon: eps, K: k}
					drainHcScratches()
					want, err := EstimateRuns(m, h, p, noise.New(int64(k)))
					if err != nil {
						t.Fatal(err)
					}
					drainHcScratches()
					hcScratches <- dirtyHcScratch()
					got, err := EstimateRuns(m, h, p, noise.New(int64(k)))
					if err != nil {
						t.Fatal(err)
					}
					if !slices.EqualFunc(got, want, func(a, b SizeRun) bool {
						return a.Size == b.Size && a.Count == b.Count && math.Float64bits(a.Var) == math.Float64bits(b.Var)
					}) {
						t.Fatalf("%s: on reused scratch %v, on fresh memory %v", name, got, want)
					}
					used := false
					for _, s := range drainHcScratches() {
						used = used || !math.IsNaN(s.ys[0])
					}
					if used != (k <= maxPooledCells) {
						t.Fatalf("%s: reused an idle entry = %v", name, used)
					}
				}
			}
		}
	}
}
