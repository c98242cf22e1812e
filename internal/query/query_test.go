package query

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hcoc/internal/histogram"
)

// example: sizes 1,1,2,3,3 (paper's running example).
var example = histogram.Hist{0, 2, 1, 2}.Sparse()

func TestKthSmallestAndLargest(t *testing.T) {
	wantSmallest := []int64{1, 1, 2, 3, 3}
	for k, want := range wantSmallest {
		got, err := KthSmallestSparse(example, int64(k+1))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("KthSmallest(%d) = %d, want %d", k+1, got, want)
		}
		gotL, err := KthLargestSparse(example, int64(len(wantSmallest)-k))
		if err != nil {
			t.Fatal(err)
		}
		if gotL != want {
			t.Errorf("KthLargest(%d) = %d, want %d", len(wantSmallest)-k, gotL, want)
		}
	}
}

func TestKthOutOfRange(t *testing.T) {
	for _, k := range []int64{0, 6, -1} {
		if _, err := KthSmallestSparse(example, k); err == nil {
			t.Errorf("KthSmallest(%d) accepted", k)
		}
		if _, err := KthLargestSparse(example, k); err == nil {
			t.Errorf("KthLargest(%d) accepted", k)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	med, err := MedianSparse(example)
	if err != nil {
		t.Fatal(err)
	}
	if med != 2 {
		t.Errorf("Median = %d, want 2", med)
	}
	minSize, err := QuantileSparse(example, 0)
	if err != nil || minSize != 1 {
		t.Errorf("Quantile(0) = %d (%v), want 1", minSize, err)
	}
	maxSize, err := QuantileSparse(example, 1)
	if err != nil || maxSize != 3 {
		t.Errorf("Quantile(1) = %d (%v), want 3", maxSize, err)
	}
	if _, err := QuantileSparse(example, 1.5); err == nil {
		t.Error("quantile > 1 accepted")
	}
	if _, err := QuantileSparse(nil, 0.5); err == nil {
		t.Error("empty histogram accepted")
	}
}

func TestQuantiles(t *testing.T) {
	got, err := QuantilesSparse(example, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range []float64{0, 0.5, 1} {
		want, err := QuantileSparse(example, q)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("Quantiles[%d] = %d, want Quantile(%g) = %d", i, got[i], q, want)
		}
	}
	if out, err := QuantilesSparse(example, nil); err != nil || len(out) != 0 {
		t.Errorf("Quantiles(nil) = %v (%v), want empty", out, err)
	}
	if _, err := QuantilesSparse(example, []float64{0.5, 2}); err == nil {
		t.Error("out-of-range quantile accepted")
	}
	for _, q := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := QuantileSparse(example, q); err == nil {
			t.Errorf("Quantile(%g) accepted", q)
		}
		if _, err := QuantilesSparse(example, []float64{q}); err == nil {
			t.Errorf("Quantiles(%g) accepted", q)
		}
	}
	if _, err := QuantilesSparse(nil, []float64{0.5}); err == nil {
		t.Error("empty histogram accepted")
	}
	// Unsorted, duplicated quantiles must still map index-aligned.
	mixed, err := QuantilesSparse(example, []float64{1, 0, 1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{3, 1, 3, 2} {
		if mixed[i] != want {
			t.Errorf("Quantiles[%d] = %d, want %d", i, mixed[i], want)
		}
	}
}

func TestMeanAndCountAtLeast(t *testing.T) {
	if got, err := MeanSparse(example); err != nil || got != 2 {
		t.Errorf("Mean = %f (err %v), want 2 (10 people / 5 groups)", got, err)
	}
	if _, err := MeanSparse(nil); !errors.Is(err, ErrEmptyHistogram) {
		t.Errorf("Mean(empty) err = %v, want ErrEmptyHistogram", err)
	}
	if got := CountAtLeastSparse(example, 2); got != 3 {
		t.Errorf("CountAtLeast(2) = %d, want 3", got)
	}
	if got := CountAtLeastSparse(example, 100); got != 0 {
		t.Errorf("CountAtLeast(100) = %d, want 0", got)
	}
}

func TestGiniKnownValues(t *testing.T) {
	// All groups equal: Gini 0.
	if got, err := GiniSparse(histogram.Hist{0, 0, 10}.Sparse()); err != nil || got != 0 {
		t.Errorf("Gini(equal sizes) = %f (err %v), want 0", got, err)
	}
	// One group has everything: Gini -> (G-1)/G.
	h := histogram.Sparse{{Size: 0, Count: 9}, {Size: 10, Count: 1}} // 9 empty, 1 of size 10
	got, err := GiniSparse(h)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.89 || got > 0.91 {
		t.Errorf("Gini(one group owns all) = %f, want ~0.9", got)
	}
	if _, err := GiniSparse(nil); !errors.Is(err, ErrEmptyHistogram) {
		t.Errorf("Gini(empty) err = %v, want ErrEmptyHistogram", err)
	}
}

func TestGiniMatchesDirectComputation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		sizes := make([]int64, n)
		for i := range sizes {
			sizes[i] = int64(r.Intn(20))
		}
		h := histogram.SparseFromSizes(sizes)
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		var people int64
		for _, s := range sizes {
			people += s
		}
		if people == 0 {
			g, err := GiniSparse(h)
			return err == nil && g == 0
		}
		// Direct O(n) formula over sorted sizes.
		var acc float64
		for i, s := range sizes {
			acc += float64(2*(i+1)-n-1) * float64(s)
		}
		want := acc / (float64(n) * float64(people))
		got, err := GiniSparse(h)
		return err == nil && got-want < 1e-9 && want-got < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopCoded(t *testing.T) {
	h := histogram.Hist{0, 5, 4, 3, 2, 1}.Sparse()
	got, err := TopCodedSparse(h, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := histogram.Hist{0, 5, 4, 6} // sizes 3,4,5 pooled into 3+
	if !got.Equal(want) {
		t.Errorf("TopCoded = %v, want %v", got, want)
	}
	if _, err := TopCodedSparse(h, 0); err == nil {
		t.Error("cap 0 accepted")
	}
}

func TestPropOrderStatisticsConsistent(t *testing.T) {
	// KthSmallest over all k reproduces the sorted group sizes.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(25)
		sizes := make([]int64, n)
		for i := range sizes {
			sizes[i] = int64(r.Intn(12))
		}
		h := histogram.SparseFromSizes(sizes)
		want := h.GroupSizes()
		for k := int64(1); k <= int64(n); k++ {
			got, err := KthSmallestSparse(h, k)
			if err != nil || got != want[k-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
