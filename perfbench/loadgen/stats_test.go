package loadgen

import (
	"errors"
	"strings"
	"testing"
)

// ramp returns the samples 1..n, sorted.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		want   float64 // 0: unsupported
	}{
		{20, 0.5, 10, 10},
		{19, 0.5, 9, 0},
		{100, 0.9, 10, 90},
		{99, 0.9, 9, 0},
		{1000, 0.99, 10, 990},
		{999, 0.99, 9, 0},
		{10000, 0.999, 10, 9990},
		{0, 0.5, 0, 0},
	} {
		if got := Beyond(c.n, c.p); got != c.beyond {
			t.Errorf("Beyond(%d, %g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		v, err := Percentile(ramp(c.n), c.p)
		if c.want == 0 {
			var ue *UnsupportedError
			if !errors.As(err, &ue) || ue.N != c.n || ue.P != c.p {
				t.Errorf("Percentile of %d samples at %g: error %v, want an *UnsupportedError", c.n, c.p, err)
			}
			continue
		}
		if err != nil || v != c.want {
			t.Errorf("Percentile of %d samples at %g = %g, %v; want %g", c.n, c.p, v, err, c.want)
		}
	}
}

func TestUnsupportedErrorNamesTheShortfall(t *testing.T) {
	_, err := Percentile(ramp(50), 0.9)
	if err == nil || !strings.Contains(err.Error(), "p90") || !strings.Contains(err.Error(), "leave 5") {
		t.Fatalf("error %q does not name p90 and the 5 samples beyond it", err)
	}
}

func TestTailPicksHighestSupported(t *testing.T) {
	for n, want := range map[int]float64{20: 0.5, 99: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 9999: 0.99, 10000: 0.999} {
		p, v, ok := Tail(ramp(n))
		if !ok || p != want {
			t.Errorf("Tail of %d samples picked p%g (ok %v), want p%g", n, 100*p, ok, 100*want)
			continue
		}
		if at, _ := Percentile(ramp(n), want); v != at {
			t.Errorf("Tail of %d samples = %g, want %g", n, v, at)
		}
	}
	if _, _, ok := Tail(ramp(19)); ok {
		t.Error("Tail reported a percentile for 19 samples")
	}
}

func TestWindowPeaks(t *testing.T) {
	for _, c := range []struct {
		samples []float64
		per     int
		want    []float64
	}{
		{[]float64{1, 5, 2, 3, 9, 4, 7}, 3, []float64{5, 9}},
		{[]float64{1, 5, 2, 3, 9, 4}, 3, []float64{5, 9}},
		{[]float64{4, 2}, 3, []float64{4}},
		{nil, 3, nil},
	} {
		got := WindowPeaks(c.samples, c.per)
		if len(got) != len(c.want) {
			t.Errorf("WindowPeaks(%v, %d) = %v, want %v", c.samples, c.per, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("WindowPeaks(%v, %d) = %v, want %v", c.samples, c.per, got, c.want)
				break
			}
		}
	}
}

func TestMedianAndSorted(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %g", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("median of nothing = %g", m)
	}
	xs := []float64{3, 1, 2}
	if s := Sorted(xs); s[0] != 1 || xs[0] != 3 {
		t.Error("Sorted must sort a copy")
	}
}
