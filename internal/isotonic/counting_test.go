package isotonic

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hcoc/internal/dataset"
	"hcoc/internal/hierarchy"
	"hcoc/internal/noise"
)

// hcInput is the input the Hc estimator fits for node histogram h at
// bound k and budget eps: cell i is the number of groups of size at
// most i plus double-geometric noise of scale 1/eps.
func hcInput(h []int64, eps float64, k int, seed int64) []float64 {
	gen := noise.New(seed)
	ys := make([]float64, k)
	var cum int64
	for i := range ys {
		if i < len(h) {
			cum += h[i]
		}
		ys[i] = float64(cum + gen.DoubleGeometric(1/eps))
	}
	return ys
}

// hcNode returns the histogram of the node at path in a synthetic tree.
func hcNode(t testing.TB, kind dataset.Kind, scale float64, path string) []int64 {
	t.Helper()
	tree, err := dataset.Tree(kind, dataset.Config{Seed: 1, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	var hist []int64
	tree.Walk(func(n *hierarchy.Node) {
		if n.Path == path {
			hist = n.Hist
		}
	})
	if hist == nil {
		t.Fatalf("no node %q", path)
	}
	return hist
}

// alternating returns n values alternating between 0 and 2n-2, the
// input on which the counting path's bitmaps search farthest.
func alternating(n int) []float64 {
	ys := make([]float64, n)
	for i := 1; i < n; i += 2 {
		ys[i] = float64(2*n - 2)
	}
	return ys
}

// equalTops runs heapTops and countingTops on copies of ys and fails on
// the first recorded top whose bits differ. The counting path runs over
// [min, max] whether or not FitL1InPlace would choose it.
func equalTops(t *testing.T, ys []float64) {
	t.Helper()
	lo, hi := slices.Min(ys), slices.Max(ys)
	heap := slices.Clone(ys)
	heapTops(heap)
	counted := slices.Clone(ys)
	countingTops(counted, int64(lo), int(hi-lo)+1)
	for i := range heap {
		if math.Float64bits(heap[i]) != math.Float64bits(counted[i]) {
			t.Fatalf("top %d: counting %v != heap %v", i, counted[i], heap[i])
		}
	}
	fit := FitL1InPlace(slices.Clone(ys))
	want := suffixMin(heap)
	for i := range want {
		if math.Float64bits(fit[i]) != math.Float64bits(want[i]) {
			t.Fatalf("fit %d: FitL1InPlace %v != heap path %v", i, fit[i], want[i])
		}
	}
}

// TestCountingMatchesHeap pins the counting path to the heap path bit
// for bit on the Hc estimator's own inputs (the census root and a
// housing state at four budgets and both bounds the paper and the
// service use) and on the inputs at the edges of the path choice.
func TestCountingMatchesHeap(t *testing.T) {
	nodes := []struct {
		name string
		hist []int64
	}{
		{"census root", hcNode(t, dataset.RaceHawaiian, 1, "US")},
		{"housing US/CA", hcNode(t, dataset.Housing, 1, "US/CA")},
	}
	for _, node := range nodes {
		for _, eps := range []float64{0.001, 0.1, 0.5, 2} {
			for _, k := range []int{10000, 100000} {
				t.Run(fmt.Sprintf("%s/eps=%g/K=%d", node.name, eps, k), func(t *testing.T) {
					equalTops(t, hcInput(node.hist, eps, k, 7))
				})
			}
		}
	}

	const n = 1000
	edge := func(rng int) []float64 {
		ys := alternating(n)
		ys[1] = float64(rng)
		for i := range ys {
			ys[i] -= 7
		}
		return ys
	}
	for _, tc := range []struct {
		name     string
		ys       []float64
		counting bool
	}{
		{"alternating 0/2n-2", alternating(n), true},
		{"range 2n-1", edge(2*n - 1), true},
		{"range 2n", edge(2 * n), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, ok := countingSpan(tc.ys); ok != tc.counting {
				t.Fatalf("countingSpan ok = %v, want %v", ok, tc.counting)
			}
			equalTops(t, tc.ys)
		})
	}
}

// TestCountingSpanRefuses pins the inputs the counting path must leave
// to the heap: non-integers, -0, NaN, ±Inf and magnitudes of 2^52 and up.
func TestCountingSpanRefuses(t *testing.T) {
	for _, bad := range []float64{0.5, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1 << 52, -(1 << 52)} {
		if _, _, ok := countingSpan([]float64{1, bad, 2}); ok {
			t.Errorf("countingSpan accepted %v", bad)
		}
	}
	lo, span, ok := countingSpan([]float64{-3, 0, 2, -1})
	if !ok || lo != -3 || span != 6 {
		t.Errorf("countingSpan = %d, %d, %v; want -3, 6, true", lo, span, ok)
	}
}

// BenchmarkIsotonicL1Census is FitL1InPlace on the Hc estimator's
// input for the census root (RaceHawaiian at scale 1, epsilon 0.5) at
// K = 100000, the counting path's case.
func BenchmarkIsotonicL1Census(b *testing.B) {
	ys := hcInput(hcNode(b, dataset.RaceHawaiian, 1, "US"), 0.5, 100000, 1)
	if _, _, ok := countingSpan(ys); !ok {
		b.Fatal("census input does not take the counting path")
	}
	buf := make([]float64, len(ys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, ys)
		FitL1InPlace(buf)
	}
}

// BenchmarkIsotonicL1Alternating runs both paths on the alternating
// 0/2n-2 input at n = 100000, where every other step lowers the top
// across the whole range: the counting path must stay within 2x of
// the heap here.
func BenchmarkIsotonicL1Alternating(b *testing.B) {
	ys := alternating(100000)
	buf := make([]float64, len(ys))
	for _, arm := range []struct {
		name string
		fit  func([]float64)
	}{
		{"counting", func(ys []float64) { FitL1InPlace(ys) }},
		{"heap", func(ys []float64) { heapTops(ys); suffixMin(ys) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, ys)
				arm.fit(buf)
			}
		})
	}
}
