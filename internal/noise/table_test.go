package noise

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// formulaGeometric is the geometric draw without a table: one
// rand.Float64 and floor(log(1-f)/log(alpha)), or 0 without a draw at
// alpha = 0. The lookup table must agree with it on every word.
func formulaGeometric(r *rand.Rand, alpha float64) int64 {
	if alpha <= 0 {
		return 0
	}
	u := 1 - r.Float64()
	return int64(math.Floor(math.Log(u) / math.Log(alpha)))
}

// formulaAt is formulaGeometric on one source word Float64 accepts.
func formulaAt(x int64, logAlpha float64) int64 {
	return int64(math.Floor(math.Log(1-float64(x)/(1<<63)) / logAlpha))
}

// tableScales are the scales the equality tests cover: alpha = 0
// (0.001), tables of every density (0.3 to 300), and scales where the
// table is skipped (1e4, and 2^41, the Hc scale at the epsilon floor).
var tableScales = []struct {
	scale float64
	table bool
}{
	{0.001, false}, {0.3, true}, {1, true}, {2, true}, {3, true},
	{30, true}, {300, true}, {1e4, false}, {2 / MinEpsilon, false},
}

// TestGeometricMatchesFormula draws 10^7 geometric variates per scale
// (10^6 under -short or the race detector) and compares each with the
// formula on a second generator of the same seed, then checks both
// consumed the same words.
func TestGeometricMatchesFormula(t *testing.T) {
	draws := 10_000_000
	if raceEnabled || testing.Short() {
		draws = 1_000_000
	}
	for i, tc := range tableScales {
		t.Run(fmt.Sprintf("scale=%g", tc.scale), func(t *testing.T) {
			t.Parallel()
			seed := int64(100 + i)
			g, ref := New(seed), rand.New(rand.NewSource(seed))
			g.setScale(tc.scale)
			if (g.table != nil) != tc.table {
				t.Fatalf("table built: %v, want %v", g.table != nil, tc.table)
			}
			for d := 0; d < draws; d++ {
				if got, want := g.geometric(), formulaGeometric(ref, g.alpha); got != want {
					t.Fatalf("draw %d: %d, want %d", d, got, want)
				}
			}
			if got, want := g.r.Int63(), ref.Int63(); got != want {
				t.Fatalf("streams diverged after %d draws: next word %d, want %d", draws, got, want)
			}
		})
	}
}

// TestTableCellEdges checks every cell that answers from a table at
// its first and last 3,000 words (300 under -short or the race
// detector): u is monotone in the word, so a cell that holds two
// values would show it at an edge first.
func TestTableCellEdges(t *testing.T) {
	words := int64(3000)
	if raceEnabled || testing.Short() {
		words = 300
	}
	for _, tc := range tableScales {
		if !tc.table {
			continue
		}
		t.Run(fmt.Sprintf("scale=%g", tc.scale), func(t *testing.T) {
			t.Parallel()
			alpha := math.Exp(-1 / tc.scale)
			logAlpha := math.Log(alpha)
			tab := buildTable(alpha)
			answered := 0
			for j, k := range tab.k {
				if k == fallback {
					continue
				}
				answered++
				first, last := int64(j)<<cellShift, int64(j+1)<<cellShift-1
				for i := int64(0); i < words; i++ {
					for _, x := range [2]int64{first + i, last - i} {
						if got := formulaAt(x, logAlpha); got != int64(k) {
							t.Fatalf("cell %d answers %d, but word %#x draws %d", j, k, x, got)
						}
					}
				}
			}
			if answered < tableCells/2 {
				t.Fatalf("%d cells answer, want at least half", answered)
			}
		})
	}
}

// TestTableCacheConcurrent draws from Gens on several goroutines that
// cycle through more scales than the cache holds, so lookups, builds
// and evictions interleave, and checks every draw against the formula.
func TestTableCacheConcurrent(t *testing.T) {
	scales := make([]float64, tableCacheSize+4)
	for i := range scales {
		scales[i] = 2 + float64(i)/7
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			g, ref := New(seed), rand.New(rand.NewSource(seed))
			for round := 0; round < 3; round++ {
				for i := range scales {
					scale := scales[(i+int(seed))%len(scales)]
					alpha := math.Exp(-1 / scale)
					for d := 0; d < 500; d++ {
						want := formulaGeometric(ref, alpha)
						want -= formulaGeometric(ref, alpha)
						if got := g.DoubleGeometric(scale); got != want {
							t.Errorf("seed %d, scale %g, draw %d: %d, want %d", seed, scale, d, got, want)
							return
						}
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// wordSource is a rand.Source that yields chosen words in order.
type wordSource struct {
	words []int64
	next  int
}

func (s *wordSource) Int63() int64 { w := s.words[s.next]; s.next++; return w }
func (s *wordSource) Seed(int64)   {}

// TestGeometricChosenWords feeds chosen words to a Gen and to the
// formula: u = 1, the words rand.Float64 redraws, and the words on both
// sides of every cell edge where the table's answer changes.
func TestGeometricChosenWords(t *testing.T) {
	const scale = 2.0
	alpha := math.Exp(-1 / scale)
	tab := buildTable(alpha)
	cases := [][]int64{
		{0},                     // u = 1
		{1<<63 - 1, 5},          // redrawn
		{1<<63 - 1<<9, 1 << 62}, // the first redrawn word
		{1<<63 - 1<<9 - 1},      // the last word Float64 keeps
		{1<<63 - 1, 1<<63 - 1<<9, 1<<63 - 1, 7},
	}
	for j := 0; j+1 < tableCells; j++ {
		if tab.k[j] != tab.k[j+1] {
			edge := int64(j+1) << cellShift
			cases = append(cases, []int64{edge - 1}, []int64{edge})
		}
	}
	for _, words := range cases {
		gs := &wordSource{words: words}
		rs := &wordSource{words: words}
		g, ref := NewFrom(rand.New(gs)), rand.New(rs)
		g.setScale(scale)
		if got, want := g.geometric(), formulaGeometric(ref, alpha); got != want {
			t.Errorf("words %#x: %d, want %d", words, got, want)
		}
		if gs.next != len(words) || rs.next != len(words) {
			t.Errorf("words %#x: consumed %d, formula %d, want %d", words, gs.next, rs.next, len(words))
		}
	}
}

// FuzzDoubleGeometric compares 256 draws at a fuzzed scale with the
// formula on the same stream, and requires a panic at a refused scale.
func FuzzDoubleGeometric(f *testing.F) {
	for _, tc := range tableScales {
		f.Add(int64(1), tc.scale)
	}
	for _, s := range []float64{0, -2, math.NaN(), math.Inf(1), maxScale, math.Nextafter(maxScale, 0), 700} {
		f.Add(int64(2), s)
	}
	f.Fuzz(func(t *testing.T, seed int64, scale float64) {
		g, ref := New(seed), rand.New(rand.NewSource(seed))
		if !(scale > 0 && scale < maxScale) {
			defer func() {
				if recover() == nil {
					t.Errorf("scale %g accepted", scale)
				}
			}()
			g.DoubleGeometric(scale)
			return
		}
		alpha := math.Exp(-1 / scale)
		for d := 0; d < 256; d++ {
			want := formulaGeometric(ref, alpha)
			want -= formulaGeometric(ref, alpha)
			if got := g.DoubleGeometric(scale); got != want {
				t.Fatalf("scale %g, draw %d: %d, want %d", scale, d, got, want)
			}
		}
	})
}

// raceEnabled reports whether the tests run under the race detector,
// which slows the draw-by-draw comparisons about tenfold.
var raceEnabled bool

// sink keeps the benchmarks' draws alive.
var sink int64

// BenchmarkGeometric times one geometric draw with the scale's table
// (table) and with the formula alone (log), at scales where nearly
// every cell answers (2, 3), most do (30) and the table is skipped
// (1e4). miss times a fresh Gen at a scale not in the cache, whose
// first draw builds a table, and 2,000 draws: the cost of a miss
// amortized over a small histogram.
func BenchmarkGeometric(b *testing.B) {
	// The arms of one scale run back to back, so that drift in the
	// machine's speed moves both alike.
	for _, s := range []struct {
		name  string
		scale float64
	}{{"2", 2}, {"3", 3}, {"30", 30}, {"1e4", 1e4}} {
		for _, arm := range []string{"table", "log"} {
			b.Run(arm+"/scale="+s.name, func(b *testing.B) {
				g := New(1)
				g.setScale(s.scale)
				if arm == "log" {
					g.table = nil
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink += g.geometric()
				}
			})
		}
	}
	b.Run("miss", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			missScale = math.Nextafter(missScale, 4)
			g := NewFrom(r)
			g.setScale(missScale)
			for d := 0; d < 2000; d++ {
				sink += g.geometric()
			}
		}
	})
}

// missScale steps up from 3 by one ulp per miss, so no two misses in a
// process share a scale.
var missScale = 3.0
