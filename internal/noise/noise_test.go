package noise

import (
	"math"
	"math/rand"
	"testing"
)

func TestDoubleGeometricMoments(t *testing.T) {
	g := New(1)
	const n = 200000
	scale := 2.0 // sensitivity 2, epsilon 1
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := float64(g.DoubleGeometric(scale))
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	wantVar := DoubleGeometricVariance(scale)
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %f, want ~0", mean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.05 {
		t.Errorf("variance = %f, want ~%f", variance, wantVar)
	}
}

func TestDoubleGeometricDistributionShape(t *testing.T) {
	// Empirical pmf should match (1-a)/(1+a) a^|k| within sampling error.
	g := New(7)
	const n = 400000
	scale := 1.0
	counts := map[int64]int{}
	for i := 0; i < n; i++ {
		counts[g.DoubleGeometric(scale)]++
	}
	a := math.Exp(-1 / scale)
	for k := int64(-3); k <= 3; k++ {
		want := (1 - a) / (1 + a) * math.Pow(a, math.Abs(float64(k)))
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(X=%d) = %f, want ~%f", k, got, want)
		}
	}
}

func TestDoubleGeometricSymmetry(t *testing.T) {
	g := New(42)
	const n = 100000
	pos, neg := 0, 0
	for i := 0; i < n; i++ {
		switch x := g.DoubleGeometric(1.5); {
		case x > 0:
			pos++
		case x < 0:
			neg++
		}
	}
	ratio := float64(pos) / float64(neg)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("pos/neg ratio = %f, want ~1", ratio)
	}
}

func TestLaplaceMoments(t *testing.T) {
	g := New(3)
	const n = 200000
	scale := 1.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Laplace(scale)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %f, want ~0", mean)
	}
	if math.Abs(variance-2)/2 > 0.05 {
		t.Errorf("variance = %f, want ~2", variance)
	}
}

func TestAddDoubleGeometricPreservesLength(t *testing.T) {
	g := New(11)
	xs := []int64{5, 10, 0, 3}
	out := g.AddDoubleGeometric(xs, 2)
	if len(out) != len(xs) {
		t.Fatalf("length = %d, want %d", len(out), len(xs))
	}
	// Input must not be modified.
	if xs[0] != 5 || xs[1] != 10 || xs[2] != 0 || xs[3] != 3 {
		t.Error("input slice was modified")
	}
}

func TestAddLaplacePreservesLength(t *testing.T) {
	g := New(11)
	xs := []int64{5, 10, 0}
	out := g.AddLaplace(xs, 1)
	if len(out) != len(xs) {
		t.Fatalf("length = %d, want %d", len(out), len(xs))
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 100; i++ {
		if a.DoubleGeometric(1) != b.DoubleGeometric(1) {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestPanicsOnBadScale(t *testing.T) {
	g := New(1)
	for _, f := range []func(){
		func() { g.DoubleGeometric(0) },
		func() { g.Laplace(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("non-positive scale accepted")
				}
			}()
			f()
		}()
	}
}

func TestVarianceFormulas(t *testing.T) {
	// As scale grows, double-geometric variance approaches 2*scale^2.
	for _, scale := range []float64{5, 20, 100} {
		dg := DoubleGeometricVariance(scale)
		lap := LaplaceVariance(scale)
		if math.Abs(dg-lap)/lap > 0.05 {
			t.Errorf("scale %f: dg var %f too far from laplace var %f", scale, dg, lap)
		}
		if dg > lap {
			t.Errorf("scale %f: double-geometric variance %f should not exceed laplace %f", scale, dg, lap)
		}
	}
}

// TestDoubleGeometricMatchesUnmemoized pins the memoized sampler to the
// textbook one that recomputes exp(-1/scale) and its log on every draw,
// across scale changes, including a scale whose alpha underflows to 0.
func TestDoubleGeometricMatchesUnmemoized(t *testing.T) {
	g, ref := New(5), rand.New(rand.NewSource(5))
	geometric := func(alpha float64) int64 {
		if alpha <= 0 {
			return 0
		}
		u := 1 - ref.Float64()
		return int64(math.Floor(math.Log(u) / math.Log(alpha)))
	}
	for i, scale := range []float64{2, 2, 0.5, 1e-3, 1e-3, 7, 2, 100, 0.5} {
		for j := 0; j < 1000; j++ {
			alpha := math.Exp(-1 / scale)
			want := geometric(alpha) - geometric(alpha)
			if got := g.DoubleGeometric(scale); got != want {
				t.Fatalf("scale %g (step %d), draw %d: %d, want %d", scale, i, j, got, want)
			}
		}
	}
}

// TestCheckEpsilon pins the floor: it holds per level, refuses NaN,
// ±Inf and what is not positive, and admits the floor itself, where
// the draws still spread (one is 0 with probability about 2^-41).
func TestCheckEpsilon(t *testing.T) {
	for _, tc := range []struct {
		eps    float64
		levels int
		ok     bool
	}{
		{1, 1, true},
		{MinEpsilon, 1, true},
		{3 * MinEpsilon, 3, true},
		{2 * MinEpsilon, 3, false},
		{math.Nextafter(MinEpsilon, 0), 1, false},
		{1e-17, 1, false},
		{0, 1, false},
		{-1, 1, false},
		{math.NaN(), 1, false},
		{math.Inf(1), 1, false},
		{math.Inf(-1), 1, false},
	} {
		if err := CheckEpsilon(tc.eps, tc.levels); (err == nil) != tc.ok {
			t.Errorf("CheckEpsilon(%g, %d) = %v, want ok %v", tc.eps, tc.levels, err, tc.ok)
		}
	}
	g := New(3)
	for i := 0; i < 20; i++ {
		if x := g.DoubleGeometric(1 / MinEpsilon); x == 0 {
			t.Fatalf("draw %d at the floor is 0", i)
		}
	}
}
