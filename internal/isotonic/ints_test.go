package isotonic

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// heapTops runs the heap path of the slope trick over ys on fresh
// storage, storing each step's top at the index just read.
func heapTops(ys []float64) { new(Scratch).heapTops(ys) }

// countingTops runs the counting path over integer ys in [lo, lo+span)
// on fresh storage.
func countingTops(ys []float64, lo int64, span int) { new(Scratch).countingTops(ys, lo, span) }

// intBounds reports whether every value of ys is the float64 of an
// int64, as FitL1Ints requires (so no -0), and returns the smallest
// and largest.
func intBounds(ys []float64) (lo, hi int64, ok bool) {
	if len(ys) == 0 {
		return 0, 0, false
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for _, y := range ys {
		if !(y >= math.MinInt64 && y < math.MaxInt64) || float64(int64(y)) != y || math.Float64bits(y) == 1<<63 {
			return 0, 0, false
		}
		lo, hi = min(lo, int64(y)), max(hi, int64(y))
	}
	return lo, hi, true
}

// randomInts returns n integers drawn uniformly from [lo, hi], with
// both ends present.
func randomInts(r *rand.Rand, n int, lo, hi int64) []float64 {
	ys := make([]float64, n)
	for i := range ys {
		ys[i] = float64(lo + r.Int63n(hi-lo+1))
	}
	ys[r.Intn(n)] = float64(lo)
	ys[r.Intn(n)] = float64(hi)
	return ys
}

// TestFitL1IntsMatchesFitL1InPlace pins the bounded-integer entry to
// FitL1InPlace bit for bit, and checks the path it picks from (lo, hi,
// n), at the edges of that choice: hi-lo of exactly 2n-1 and 2n,
// negative values, magnitudes just below 2^52 and at it, and n = 1.
// Every case runs twice: on fresh storage, and on one Scratch shared by
// all cases, so each fit there starts from storage an earlier, often
// wider, fit left full of counts and heap entries.
func TestFitL1IntsMatchesFitL1InPlace(t *testing.T) {
	const n = 1000
	const top = 1<<52 - 1
	r := rand.New(rand.NewSource(3))
	cases := []struct {
		name     string
		ys       []float64
		counting bool
	}{
		{"wide", randomInts(r, n, -3*n, 3*n), false},
		{"hi-lo=2n-1", randomInts(r, n, -7, 2*n-8), true},
		{"hi-lo=2n", randomInts(r, n, -7, 2*n-7), false},
		{"negative", randomInts(r, n, -5*n, -4*n), true},
		{"below 2^52", randomInts(r, n, top-n, top), true},
		{"above -2^52", randomInts(r, n, -top, -top+n), true},
		{"at 2^52", randomInts(r, n, top+1-n, top+1), false},
		{"at -2^52", randomInts(r, n, -top-1, -top-1+n), false},
		{"alternating 0/2n-2", alternating(n), true},
		{"n=1", []float64{42}, true},
		{"n=1 negative", []float64{-3}, true},
		{"n=1 at 2^52", []float64{1 << 52}, false},
	}
	var shared Scratch
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lo, hi, ok := intBounds(tc.ys)
			if !ok {
				t.Fatal("case is not all integers")
			}
			want := FitL1InPlace(slices.Clone(tc.ys))
			for _, arm := range []struct {
				name string
				s    *Scratch
			}{{"fresh", new(Scratch)}, {"shared", &shared}} {
				got := FitL1Ints(slices.Clone(tc.ys), lo, hi, arm.s)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: index %d: FitL1Ints %v != FitL1InPlace %v", arm.name, i, got[i], want[i])
					}
				}
			}
			var s Scratch
			FitL1Ints(slices.Clone(tc.ys), lo, hi, &s)
			if counted := len(s.set.counts) > 0; counted != tc.counting || (cap(s.heap) > 0) == tc.counting {
				t.Fatalf("counting path = %v (heap capacity %d), want %v", counted, cap(s.heap), tc.counting)
			}
		})
	}
	if got := FitL1Ints(nil, 0, 0, new(Scratch)); len(got) != 0 {
		t.Fatalf("FitL1Ints(nil) = %v", got)
	}
}
