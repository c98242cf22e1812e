package loadgen

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is how many samples must lie above a reported percentile;
// with fewer, the number is an extrapolation rather than a measurement.
const MinBeyond = 10

// Ladder lists the percentiles Tail chooses among, highest first.
var Ladder = []float64{0.999, 0.99, 0.9, 0.5}

// UnsupportedError reports a named percentile that too few samples
// support.
type UnsupportedError struct {
	// P is the percentile asked for, as a fraction.
	P float64
	// N is the number of samples available.
	N int
}

// Error implements error.
func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("loadgen: p%g needs %d samples beyond it, %d samples leave %d",
		100*e.P, MinBeyond, e.N, Beyond(e.N, e.P))
}

// rank is the 1-based nearest-rank position of the p-quantile among n
// samples. The epsilon keeps p*n from rounding up across an integer:
// the 0.9-quantile of 100 samples is the 90th.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// Beyond returns how many of n samples lie above their nearest-rank
// p-quantile.
func Beyond(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	return n - rank(n, p)
}

// Percentile returns the nearest-rank p-quantile of sorted samples, or
// an *UnsupportedError when fewer than MinBeyond samples lie beyond it.
func Percentile(sorted []float64, p float64) (float64, error) {
	if Beyond(len(sorted), p) < MinBeyond {
		return 0, &UnsupportedError{P: p, N: len(sorted)}
	}
	return sorted[rank(len(sorted), p)-1], nil
}

// Tail returns the highest percentile of Ladder that the sorted samples
// support, and its value; ok is false when not even the median is
// supported.
func Tail(sorted []float64) (p, v float64, ok bool) {
	for _, p := range Ladder {
		if v, err := Percentile(sorted, p); err == nil {
			return p, v, true
		}
	}
	return 0, 0, false
}

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// WindowPeaks splits samples taken at a fixed interval into consecutive
// windows of per samples and returns the largest sample of each; a
// trailing window with fewer samples is dropped unless it is the only
// one.
func WindowPeaks(samples []float64, per int) []float64 {
	var peaks []float64
	for i := 0; i < len(samples); i += per {
		end := i + per
		if end > len(samples) {
			if i > 0 {
				break
			}
			end = len(samples)
		}
		peak := samples[i]
		for _, v := range samples[i+1 : end] {
			peak = max(peak, v)
		}
		peaks = append(peaks, peak)
	}
	return peaks
}

// Median returns the median of xs, or 0 when xs is empty. It serves
// measurements repeated a few times within one run (set-up, replay),
// where the percentile rule's minimum does not apply.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := Sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
