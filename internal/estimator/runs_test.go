package estimator

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hcoc/internal/histogram"
	"hcoc/internal/noise"
)

// checkEstimate runs EstimateRuns, Estimate and the dense reference
// with the same seed. The runs must be rank-ordered and expand to the
// reference exactly, Estimate must return the reference's Result, and
// an error must carry the reference's text.
func checkEstimate(t *testing.T, m Method, h histogram.Hist, p Params, seed int64) {
	t.Helper()
	want, werr := estimateReference(m, h, p, noise.New(seed))
	runs, err := EstimateRuns(m, h, p, noise.New(seed))
	dense, derr := Estimate(m, h, p, noise.New(seed))
	for _, e := range []error{err, derr} {
		if (e == nil) != (werr == nil) || (e != nil && e.Error() != werr.Error()) {
			t.Fatalf("%v %+v: error %v, reference %v", m, p, e, werr)
		}
	}
	if !reflect.DeepEqual(dense, want) {
		t.Fatalf("%v %+v: Estimate = %+v, reference %+v", m, p, dense, want)
	}
	if werr != nil {
		return
	}
	if (len(runs) == 0) != (h.Groups() == 0) {
		t.Fatalf("%v %+v: %d runs for %d groups", m, p, len(runs), h.Groups())
	}
	if len(runs) == 0 {
		return
	}
	if got := RunsHist(runs); !reflect.DeepEqual(got, want.Hist) {
		t.Fatalf("%v %+v: runs histogram differs\nruns      = %v\nreference = %v", m, p, got, want.Hist)
	}
	if !RunsSparse(runs).Hist().Equal(want.Hist) {
		t.Fatalf("%v %+v: RunsSparse differs from the reference histogram", m, p)
	}
	if gv := RunsGroupVar(runs); !reflect.DeepEqual(gv, want.GroupVar) {
		t.Fatalf("%v %+v: runs variances differ\nruns      = %v\nreference = %v", m, p, gv, want.GroupVar)
	}
	// Runs must be rank-ordered: non-decreasing sizes, positive counts.
	var prev int64 = -1
	for i, run := range runs {
		if run.Count <= 0 {
			t.Fatalf("%v %+v: run %d has count %d", m, p, i, run.Count)
		}
		if run.Size < prev {
			t.Fatalf("%v %+v: run sizes decrease at %d", m, p, i)
		}
		prev = run.Size
	}
}

// TestEstimateRunsDifferential drives every method over randomized
// inputs and the edges against the dense reference: K = 1, the largest
// K whose Hc scratch is pooled and the first one past it, a zero-group
// histogram, and malformed parameters.
func TestEstimateRunsDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	methods := []Method{MethodHc, MethodHcL2, MethodHg, MethodNaive}
	for trial := 0; trial < 40; trial++ {
		h := randomHistForEst(r)
		p := Params{Epsilon: 0.1 + r.Float64(), K: 50 + r.Intn(500)}
		for _, m := range methods {
			checkEstimate(t, m, h, p, int64(trial))
		}
	}
	small := histogram.Hist{0, 40, 25, 10, 5, 2, 0, 1}
	for _, k := range []int{1, maxPooledCells, maxPooledCells + 1} {
		for _, h := range []histogram.Hist{small, {3}, {0, 0, 0, 4}} {
			for _, m := range methods {
				checkEstimate(t, m, h, Params{Epsilon: 0.5, K: k}, int64(k))
			}
		}
	}
	for _, m := range append(methods, Method(99)) {
		checkEstimate(t, m, histogram.Hist{}, Params{Epsilon: 1, K: 10}, 1)
		checkEstimate(t, m, histogram.Hist{0, 0}, Params{Epsilon: 1, K: 10}, 1)
		checkEstimate(t, m, small, Params{Epsilon: 0, K: 10}, 1)
		checkEstimate(t, m, small, Params{Epsilon: math.NaN(), K: 10}, 1)
		checkEstimate(t, m, small, Params{Epsilon: 1, K: 0}, 1)
	}
	checkEstimate(t, Method(99), small, Params{Epsilon: 1, K: 10}, 1)
}

func TestEstimateRunsEmptyAndErrors(t *testing.T) {
	runs, err := EstimateRuns(MethodHc, histogram.Hist{}, Params{Epsilon: 1, K: 10}, noise.New(1))
	if err != nil || len(runs) != 0 {
		t.Fatalf("empty node: runs = %v, err = %v", runs, err)
	}
	if _, err := EstimateRuns(MethodHc, histogram.Hist{1}, Params{Epsilon: 0, K: 10}, noise.New(1)); err == nil {
		t.Fatal("EstimateRuns accepted epsilon = 0")
	}
	if _, err := EstimateRuns(Method(99), histogram.Hist{1}, Params{Epsilon: 1, K: 10}, noise.New(1)); err == nil {
		t.Fatal("EstimateRuns accepted an unknown method")
	}
}
