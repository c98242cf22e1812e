package query

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hcoc/internal/histogram"
)

// randomSparse draws a valid run-length histogram: strictly increasing
// sizes, positive counts.
func randomSparse(rng *rand.Rand, maxRuns int) histogram.Sparse {
	n := rng.Intn(maxRuns + 1)
	out := make(histogram.Sparse, 0, n)
	size := int64(rng.Intn(3))
	for i := 0; i < n; i++ {
		out = append(out, histogram.Run{Size: size, Count: 1 + int64(rng.Intn(50))})
		size += 1 + int64(rng.Intn(200))
	}
	return out
}

// sameReport compares two reports field for field, floats bit for bit
// and nil slices equal to empty ones.
func sameReport(a, b Report) bool {
	return a.Groups == b.Groups && a.People == b.People &&
		math.Float64bits(a.Mean) == math.Float64bits(b.Mean) && a.Median == b.Median &&
		math.Float64bits(a.Gini) == math.Float64bits(b.Gini) &&
		slices.Equal(a.Quantiles, b.Quantiles) && slices.Equal(a.KthLargest, b.KthLargest) &&
		slices.Equal(a.TopCoded, b.TopCoded)
}

// checkReport requires ReportSparse over s to equal the dense reference
// report over s.Hist(): the same statistics, or the same error text.
func checkReport(t *testing.T, s histogram.Sparse, p Params) {
	t.Helper()
	got, err := ReportSparse(s, p)
	want, werr := reportReference(s.Hist(), p)
	if !sameErr(err, werr) || !sameReport(got, want) {
		t.Fatalf("%v %+v: ReportSparse = (%+v, %v), reference (%+v, %v)", s, p, got, err, want, werr)
	}
}

// TestReportSparseDifferential pins ReportSparse's single-scan answers
// to the dense references over randomized histograms and parameter
// sets, malformed parameters included.
func TestReportSparseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		s := randomSparse(rng, 12)
		g := s.Groups()

		p := Params{TopCode: rng.Intn(10)}
		for i := rng.Intn(4); i > 0; i-- {
			p.Quantiles = append(p.Quantiles, rng.Float64())
		}
		for i := rng.Intn(4); i > 0; i-- {
			p.KthLargest = append(p.KthLargest, 1+rng.Int63n(g+1))
		}
		switch rng.Intn(8) {
		case 0:
			p.Quantiles = append(p.Quantiles, []float64{math.NaN(), 1.5, -0.25}[rng.Intn(3)])
		case 1:
			p.KthLargest = append(p.KthLargest, []int64{0, -3, g + 1}[rng.Intn(3)])
		case 2:
			p.TopCode = -1 - rng.Intn(3)
		}
		checkReport(t, s, p)
	}
}

// FuzzReportSparse checks ReportSparse and every single-statistic query
// against the dense references on valid run lists: each run takes three
// bytes, the gap to its size (under 32, so that the dense references
// stay cheap) and a two-byte count. The parameters reach
// NaN and infinite quantiles, ranks out of range and caps up to 4096;
// kIn is also folded into [0, G+1], so that in-range ranks come up as
// often as the edges.
func FuzzReportSparse(f *testing.F) {
	f.Add([]byte{1, 2, 0, 0, 1, 0, 3, 3, 0}, 0.5, 0.9, int64(2), int64(1), int16(4))
	f.Add([]byte{0, 9, 0, 255, 0, 1}, math.NaN(), 1.0, int64(0), int64(-1), int16(1))
	f.Add([]byte{}, 0.0, math.Inf(1), int64(1), int64(3), int16(0))
	f.Add([]byte{200, 255, 255, 7, 1, 0}, math.Inf(-1), 0.0, int64(1<<40), int64(5), int16(4096))
	f.Add([]byte{3, 1, 0}, 1e-300, 0.9999999, int64(-7), int64(9), int16(-2))
	f.Fuzz(func(t *testing.T, raw []byte, q1, q2 float64, k, kIn int64, topcode int16) {
		var s histogram.Sparse
		size := int64(-1)
		for i := 0; i+2 < len(raw) && len(s) < 64; i += 3 {
			size += 1 + int64(raw[i]%32)
			s = append(s, histogram.Run{Size: size, Count: 1 + int64(raw[i+1]) + int64(raw[i+2])<<8})
		}
		g := s.Groups()
		kIn = int64(uint64(kIn) % uint64(g+2))
		cap := int(topcode)
		if cap > 4096 {
			cap %= 4097
		}
		qs := []float64{q1, q2}
		checkReport(t, s, Params{Quantiles: qs, KthLargest: []int64{kIn, k}, TopCode: cap})
		checkReport(t, s, Params{KthLargest: []int64{kIn}, TopCode: cap})
		checkReport(t, s, Params{})
		checkQueries(t, s, []int64{k, kIn}, qs, []int{cap})
	})
}

func TestReportSparseEmpty(t *testing.T) {
	rep, err := ReportSparse(nil, Params{})
	if err != nil {
		t.Fatalf("empty node, no requested stats: %v", err)
	}
	if rep.Groups != 0 || rep.People != 0 || rep.Mean != 0 || rep.Median != 0 || rep.Gini != 0 {
		t.Fatalf("empty node: non-zero report %+v", rep)
	}
	for _, p := range []Params{
		{Quantiles: []float64{0.5}},
		{KthLargest: []int64{1}},
		{TopCode: 8},
	} {
		if _, err := ReportSparse(nil, p); err != ErrEmptyHistogram {
			t.Fatalf("empty node with %+v: err %v, want ErrEmptyHistogram", p, err)
		}
	}
}

func TestReportSparseBadParams(t *testing.T) {
	s := histogram.Sparse{{Size: 1, Count: 3}}
	if _, err := ReportSparse(s, Params{Quantiles: []float64{1.5}}); err == nil {
		t.Fatal("quantile out of range accepted")
	}
	if _, err := ReportSparse(s, Params{Quantiles: []float64{math.NaN()}}); err == nil {
		t.Fatal("NaN quantile accepted")
	}
	if _, err := ReportSparse(s, Params{KthLargest: []int64{4}}); err == nil {
		t.Fatal("rank beyond group count accepted")
	}
	if _, err := ReportSparse(s, Params{KthLargest: []int64{0}}); err == nil {
		t.Fatal("zero rank accepted")
	}
	if _, err := ReportSparse(s, Params{TopCode: -3}); err == nil {
		t.Fatal("negative topcode accepted")
	}
}
