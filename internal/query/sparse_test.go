package query

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hcoc/internal/histogram"
)

// sameErr reports whether two errors are both nil or carry the same
// text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkQueries drives every single-statistic query over s against its
// dense reference over s.Hist(), with ks as ranks and sizes, qs as
// quantiles and caps as top-code caps: equal values, equal error text.
func checkQueries(t *testing.T, s histogram.Sparse, ks []int64, qs []float64, caps []int) {
	t.Helper()
	h := s.Hist()
	for _, k := range ks {
		sv, se := KthSmallestSparse(s, k)
		rv, re := kthSmallestReference(h, k)
		if sv != rv || !sameErr(se, re) {
			t.Fatalf("%v: KthSmallest(%d) = (%d, %v), reference (%d, %v)", s, k, sv, se, rv, re)
		}
		sv, se = KthLargestSparse(s, k)
		rv, re = kthLargestReference(h, k)
		if sv != rv || !sameErr(se, re) {
			t.Fatalf("%v: KthLargest(%d) = (%d, %v), reference (%d, %v)", s, k, sv, se, rv, re)
		}
		if sc, rc := CountAtLeastSparse(s, k), countAtLeastReference(h, k); sc != rc {
			t.Fatalf("%v: CountAtLeast(%d) = %d, reference %d", s, k, sc, rc)
		}
	}
	for _, q := range qs {
		sv, se := QuantileSparse(s, q)
		rv, re := quantileReference(h, q)
		if sv != rv || !sameErr(se, re) {
			t.Fatalf("%v: Quantile(%g) = (%d, %v), reference (%d, %v)", s, q, sv, se, rv, re)
		}
	}
	svs, se := QuantilesSparse(s, qs)
	rvs, re := quantilesReference(h, qs)
	if !slices.Equal(svs, rvs) || !sameErr(se, re) {
		t.Fatalf("%v: Quantiles(%v) = (%v, %v), reference (%v, %v)", s, qs, svs, se, rvs, re)
	}
	sm, se := MedianSparse(s)
	rm, re := quantileReference(h, 0.5)
	if sm != rm || !sameErr(se, re) {
		t.Fatalf("%v: Median = (%d, %v), reference (%d, %v)", s, sm, se, rm, re)
	}
	smean, se := MeanSparse(s)
	rmean, re := meanReference(h)
	if smean != rmean || !sameErr(se, re) {
		t.Fatalf("%v: Mean = (%g, %v), reference (%g, %v)", s, smean, se, rmean, re)
	}
	sg, se := GiniSparse(s)
	rg, re := giniReference(h)
	if sg != rg || !sameErr(se, re) {
		t.Fatalf("%v: Gini = (%g, %v), reference (%g, %v)", s, sg, se, rg, re)
	}
	for _, cap := range caps {
		st, se := TopCodedSparse(s, cap)
		rt, re := topCodedReference(h, cap)
		if !slices.Equal(st, rt) || !sameErr(se, re) {
			t.Fatalf("%v: TopCoded(%d) = (%v, %v), reference (%v, %v)", s, cap, st, se, rt, re)
		}
	}
}

// TestSparseQueryDifferential drives every single-statistic query over
// randomized histograms against the dense references, requiring equal
// answers and equal error text.
func TestSparseQueryDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		h := make(histogram.Hist, 1+r.Intn(300))
		for n := r.Intn(10); n > 0; n-- {
			h[r.Intn(len(h))] = int64(r.Intn(40))
		}
		g := h.Groups()
		checkQueries(t, h.Sparse(),
			[]int64{-1, 0, 1, g / 2, g, g + 1, 5, 1000},
			[]float64{0, 0.25, 0.5, 0.99, 1, 0.9, 0.1, 0.5, -0.5, 1.5, math.NaN(), math.Inf(1)},
			[]int{-1, 0, 1, 3, 8})
		checkQueries(t, h.Sparse(), nil, []float64{0.9, 0.1, 0.5, 0.5}, nil)
	}
}

// TestEmptyHistogramTypedError pins that every query that is undefined
// on a zero-group node reports ErrEmptyHistogram.
func TestEmptyHistogramTypedError(t *testing.T) {
	se := histogram.Sparse{}
	checks := []struct {
		name string
		err  error
	}{
		{"KthSmallestSparse", func() error { _, err := KthSmallestSparse(se, 1); return err }()},
		{"KthLargestSparse", func() error { _, err := KthLargestSparse(se, 1); return err }()},
		{"QuantileSparse", func() error { _, err := QuantileSparse(se, 0.5); return err }()},
		{"QuantilesSparse", func() error { _, err := QuantilesSparse(se, []float64{0.5}); return err }()},
		{"MedianSparse", func() error { _, err := MedianSparse(se); return err }()},
		{"MeanSparse", func() error { _, err := MeanSparse(se); return err }()},
		{"GiniSparse", func() error { _, err := GiniSparse(se); return err }()},
		{"TopCodedSparse", func() error { _, err := TopCodedSparse(se, 3); return err }()},
	}
	for _, c := range checks {
		if !errors.Is(c.err, ErrEmptyHistogram) {
			t.Errorf("%s: error = %v, want ErrEmptyHistogram", c.name, c.err)
		}
	}
	// Parameter errors must stay distinguishable from emptiness.
	one := histogram.Sparse{{Size: 0, Count: 1}}
	if _, err := TopCodedSparse(one, 0); errors.Is(err, ErrEmptyHistogram) || err == nil {
		t.Errorf("TopCodedSparse(cap=0) = %v, want a non-empty-histogram error", err)
	}
	if _, err := QuantileSparse(one, 2); errors.Is(err, ErrEmptyHistogram) || err == nil {
		t.Errorf("QuantileSparse(q=2) = %v, want a non-empty-histogram error", err)
	}
}
