package isotonic

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFitL2Simple(t *testing.T) {
	tests := []struct {
		ys, want []float64
	}{
		{nil, nil},
		{[]float64{1, 2, 3}, []float64{1, 2, 3}},
		{[]float64{3, 2, 1}, []float64{2, 2, 2}},
		{[]float64{1, 3, 2}, []float64{1, 2.5, 2.5}},
		// Figure 2 of the paper: [0,4,2,4,5,3] -> [0,3,3,4,4,4].
		{[]float64{0, 4, 2, 4, 5, 3}, []float64{0, 3, 3, 4, 4, 4}},
	}
	for _, tc := range tests {
		got := FitL2(tc.ys)
		if len(got) != len(tc.want) {
			t.Fatalf("FitL2(%v) = %v, want %v", tc.ys, got, tc.want)
		}
		for i := range got {
			if !almostEqual(got[i], tc.want[i]) {
				t.Errorf("FitL2(%v) = %v, want %v", tc.ys, got, tc.want)
				break
			}
		}
	}
}

func TestFitL1Simple(t *testing.T) {
	got := FitL1([]float64{3, 1})
	if !IsMonotone(got) {
		t.Fatalf("not monotone: %v", got)
	}
	if c := CostL1([]float64{3, 1}, got); c != 2 {
		t.Errorf("cost = %f, want 2", c)
	}
	if FitL1(nil) != nil {
		t.Error("FitL1(nil) should be nil")
	}
}

func TestFitL1IntegerInputsGiveIntegerFit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = float64(r.Intn(20) - 5)
		}
		for _, z := range FitL1(ys) {
			if z != math.Trunc(z) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// bruteForceIso finds the optimal isotonic cost by enumerating every
// partition of the indices into consecutive blocks, assigning each block
// its optimal constant (mean for L2, median for L1) and keeping feasible
// (monotone) candidates. Exponential; only for small n.
func bruteForceIso(ys []float64, l1 bool) float64 {
	n := len(ys)
	best := math.Inf(1)
	// Each bitmask over n-1 positions marks block boundaries.
	for mask := 0; mask < 1<<(n-1); mask++ {
		var vals []float64
		start := 0
		feasible := true
		prev := math.Inf(-1)
		for i := 0; i < n; i++ {
			if i == n-1 || mask&(1<<i) != 0 {
				block := ys[start : i+1]
				var v float64
				if l1 {
					v = median(block)
				} else {
					v = mean(block)
				}
				if v < prev {
					feasible = false
					break
				}
				prev = v
				for range block {
					vals = append(vals, v)
				}
				start = i + 1
			}
		}
		if !feasible {
			continue
		}
		var cost float64
		if l1 {
			cost = CostL1(ys, vals)
		} else {
			cost = CostL2(ys, vals)
		}
		if cost < best {
			best = cost
		}
	}
	return best
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func TestFitL2MatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(7)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = float64(r.Intn(10))
		}
		got := FitL2(ys)
		if !IsMonotone(got) {
			t.Fatalf("FitL2(%v) = %v not monotone", ys, got)
		}
		want := bruteForceIso(ys, false)
		if gotCost := CostL2(ys, got); math.Abs(gotCost-want) > 1e-9 {
			t.Fatalf("FitL2(%v) cost %f, brute force %f", ys, gotCost, want)
		}
	}
}

func TestFitL1MatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(7)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = float64(r.Intn(10))
		}
		got := FitL1(ys)
		if !IsMonotone(got) {
			t.Fatalf("FitL1(%v) = %v not monotone", ys, got)
		}
		want := bruteForceIso(ys, true)
		if gotCost := CostL1(ys, got); math.Abs(gotCost-want) > 1e-9 {
			t.Fatalf("FitL1(%v) cost %f, brute force %f", ys, gotCost, want)
		}
	}
}

func TestFitL2Weighted(t *testing.T) {
	// A heavy weight pins the fit near its value.
	ys := []float64{5, 1}
	ws := []float64{1, 1000}
	got := FitL2Weighted(ys, ws)
	if !IsMonotone(got) {
		t.Fatalf("not monotone: %v", got)
	}
	if got[1] > 1.1 {
		t.Errorf("heavy weight ignored: %v", got)
	}
	// Weighted mean check: pooled value = (5 + 1000)/1001.
	want := (5.0 + 1000.0) / 1001.0
	if !almostEqual(got[0], want) || !almostEqual(got[1], want) {
		t.Errorf("got %v, want pooled %f", got, want)
	}
}

func TestFitL2WeightedPanics(t *testing.T) {
	for _, tc := range []struct {
		ys, ws []float64
	}{
		{[]float64{1, 2}, []float64{1}},
		{[]float64{1, 2}, []float64{1, 0}},
		{[]float64{1, 2}, []float64{1, -3}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad weights %v accepted", tc.ws)
				}
			}()
			FitL2Weighted(tc.ys, tc.ws)
		}()
	}
}

func TestClampBox(t *testing.T) {
	zs := []float64{-2, 0.5, 3, 10}
	got := ClampBox(zs, 0, 5)
	want := []float64{0, 0.5, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ClampBox = %v, want %v", got, want)
		}
	}
	if !IsMonotone(got) {
		t.Error("clamping broke monotonicity")
	}
}

func TestBlocks(t *testing.T) {
	zs := []float64{0, 3, 3, 4, 4, 4}
	got := Blocks(zs)
	want := [][2]int{{0, 1}, {1, 3}, {3, 6}}
	if len(got) != len(want) {
		t.Fatalf("Blocks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Blocks = %v, want %v", got, want)
		}
	}
}

func TestPropFitsAreMonotoneAndNoWorseThanConstant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = r.NormFloat64() * 10
		}
		z2, z1 := FitL2(ys), FitL1(ys)
		if !IsMonotone(z2) || !IsMonotone(z1) {
			return false
		}
		// The best constant fit is feasible, so PAV must not be worse.
		constMean := make([]float64, n)
		constMed := make([]float64, n)
		m, md := mean(ys), median(ys)
		for i := range ys {
			constMean[i], constMed[i] = m, md
		}
		return CostL2(ys, z2) <= CostL2(ys, constMean)+1e-9 &&
			CostL1(ys, z1) <= CostL1(ys, constMed)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSortedInputIsFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = r.NormFloat64()
		}
		sort.Float64s(ys)
		z2, z1 := FitL2(ys), FitL1(ys)
		for i := range ys {
			if !almostEqual(z2[i], ys[i]) || !almostEqual(z1[i], ys[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFitL1InPlaceMatchesFitL1 pins FitL1InPlace and FitL1 to the
// binary-heap reference bit for bit, on short tie-heavy inputs and on
// long census-shaped ones (a ramp to a noisy plateau) whose heaps are
// many levels deep.
func TestFitL1InPlaceMatchesFitL1(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		var ys []float64
		if trial < 100 {
			ys = make([]float64, r.Intn(200))
			for i := range ys {
				ys[i] = float64(r.Intn(50)) - 10
			}
		} else {
			ys = make([]float64, 1000+r.Intn(20000))
			for i := range ys {
				ys[i] = float64(min(i, 20)*50 + r.Intn(41) - 20)
			}
		}
		want := fitL1Reference(ys)
		in := append([]float64(nil), ys...)
		for name, got := range map[string][]float64{
			"FitL1": FitL1(ys), "FitL1InPlace": FitL1InPlace(in),
		} {
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s length %d != %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: %s index %d: %v != %v", trial, name, i, got[i], want[i])
				}
			}
		}
	}
}
