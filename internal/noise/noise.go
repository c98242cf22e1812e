package noise

import (
	"fmt"
	"math"
	"math/rand"
)

// MinEpsilon is the smallest budget one estimate may spend: 2^-40,
// about 9.1e-13. Below about 1e-16, exp(-epsilon) rounds to 1 and
// DoubleGeometric's two draws cancel to 0, releasing exact counts; from
// this floor up, rounding exp(-epsilon) to a double moves the sampler's
// effective epsilon by under 0.02%.
const MinEpsilon = 0x1p-40

// CheckEpsilon returns an error unless epsilon is a budget the samplers
// can honour when it is split evenly across levels sequential estimates
// (1 for a single estimate): a finite positive number leaving at least
// MinEpsilon to each.
func CheckEpsilon(epsilon float64, levels int) error {
	switch per := epsilon / float64(levels); {
	case math.IsNaN(epsilon) || math.IsInf(epsilon, 0):
		return fmt.Errorf("epsilon must be a finite number, got %g", epsilon)
	case epsilon <= 0:
		return fmt.Errorf("epsilon must be positive, got %g", epsilon)
	case per < MinEpsilon && levels == 1:
		return fmt.Errorf("epsilon %g is below the floor of 2^-40 (%.4g) that the noise can honour", epsilon, MinEpsilon)
	case per < MinEpsilon:
		return fmt.Errorf("epsilon %g split over %d levels leaves %.4g per level, below the floor of 2^-40 (%.4g) that the noise can honour", epsilon, levels, per, MinEpsilon)
	}
	return nil
}

// maxScale bounds the scales the samplers accept. From 2^54 up,
// exp(-1/scale) rounds to 1, both geometric draws of DoubleGeometric
// become int64(-Inf) and cancel, and the "noise" is 0 on every draw.
const maxScale = 0x1p54

// checkScale panics unless scale is positive and below maxScale, which
// also refuses NaN and ±Inf. CheckEpsilon stops every library and
// daemon entry point first; this guard keeps a direct caller from
// drawing zero noise.
func checkScale(scale float64) {
	if !(scale > 0 && scale < maxScale) {
		panic(fmt.Sprintf("noise: scale must be positive and below 2^54, got %g", scale))
	}
}

// Gen wraps a seeded random source with the two mechanisms used in the
// paper. A Gen is not safe for concurrent use; create one per goroutine.
type Gen struct {
	r *rand.Rand
	// scale, alpha, logAlpha and table memoize DoubleGeometric's
	// constants for the last scale it drew at. Callers draw whole
	// histograms at one scale, and exp and log dominate a draw. A nil
	// table leaves every draw to the formula.
	scale, alpha, logAlpha float64
	table                  *geoTable
}

// New returns a generator seeded with the given seed.
func New(seed int64) *Gen {
	return &Gen{r: rand.New(rand.NewSource(seed))}
}

// NewFrom returns a generator that draws from an existing *rand.Rand.
func NewFrom(r *rand.Rand) *Gen {
	return &Gen{r: r}
}

// Rand exposes the underlying random source, for callers that need
// auxiliary randomness (e.g. tie-breaking) tied to the same seed.
func (g *Gen) Rand() *rand.Rand { return g.r }

// DoubleGeometric samples integer noise from the double-geometric
// distribution with the given scale (scale = sensitivity/epsilon):
//
//	P(X = k) = (1-a)/(1+a) * a^|k|,  a = exp(-1/scale)
//
// This is the distribution of Definition 3 in the paper. It is sampled
// as the difference of two independent geometric variates, which keeps
// the output exactly integral. Each variate consumes the source as
// rand.Float64 would (see geometric), so a seed gives the same draws
// whether a lookup table or the formula answers them.
//
// It panics unless scale is positive and below 2^54, where
// exp(-1/scale) would round to 1 and the two variates would cancel.
func (g *Gen) DoubleGeometric(scale float64) int64 {
	// A fresh Gen's zero scale must not pass for a memoized one.
	if scale != g.scale || scale <= 0 {
		g.setScale(scale)
	}
	return g.geometric() - g.geometric()
}

// setScale checks scale and memoizes the constants of its draws.
func (g *Gen) setScale(scale float64) {
	checkScale(scale)
	g.scale = scale
	g.alpha = math.Exp(-1 / scale)
	g.logAlpha = math.Log(g.alpha)
	g.table = nil
	if g.alpha > 0 {
		g.table = tableFor(scale, g.alpha)
	}
}

// redrawWord is the first source word that rand.Float64 refuses:
// float64(x)/2^63 rounds to 1 for every x from 2^63-2^9 up, and Float64
// then draws again.
const redrawWord = 1<<63 - 1<<9

// geometric samples the number of failures before the first success of a
// Bernoulli(1-alpha) process, i.e. P(G = k) = (1-alpha) * alpha^k for
// k = 0, 1, 2, ... via inversion, with alpha the memoized g.alpha.
//
// At alpha = 0 it returns 0 and consumes nothing. Otherwise it reads
// the source word x exactly as rand.Float64 does, one Int63 and a
// redraw for the words Float64 refuses, and the result is
// floor(log(u)/log(alpha)) with u = 1 - float64(x)/2^63. The memoized
// table answers first, from the top bits of x, for the words whose
// cell that formula is certain to map to one value; every other word
// runs the formula.
func (g *Gen) geometric() int64 {
	if g.alpha <= 0 {
		return 0
	}
	x := g.r.Int63()
	for x >= redrawWord {
		x = g.r.Int63()
	}
	if g.table != nil {
		if k := g.table.k[x>>cellShift&(tableCells-1)]; k >= 0 {
			return int64(k)
		}
	}
	// u in (0, 1]; floor(log(u)/log(alpha)) is Geometric(1-alpha).
	u := 1 - float64(x)/(1<<63)
	return int64(math.Floor(math.Log(u) / g.logAlpha))
}

// Laplace samples real-valued noise from the Laplace distribution with
// the given scale (scale = sensitivity/epsilon). It panics on the
// scales DoubleGeometric refuses.
func (g *Gen) Laplace(scale float64) float64 {
	checkScale(scale)
	u := g.r.Float64() - 0.5
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

// AddDoubleGeometric returns a copy of xs with independent
// double-geometric noise of the given scale added to every cell.
func (g *Gen) AddDoubleGeometric(xs []int64, scale float64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = x + g.DoubleGeometric(scale)
	}
	return out
}

// AddLaplace returns xs (converted to float64) with independent Laplace
// noise of the given scale added to every cell.
func (g *Gen) AddLaplace(xs []int64, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) + g.Laplace(scale)
	}
	return out
}

// DoubleGeometricVariance returns the variance of the double-geometric
// distribution with the given scale: 2a/(1-a)^2 with a = exp(-1/scale).
// For moderate scales it is close to the Laplace variance 2*scale^2, and
// the paper's variance estimates use the Laplace approximation.
func DoubleGeometricVariance(scale float64) float64 {
	a := math.Exp(-1 / scale)
	return 2 * a / ((1 - a) * (1 - a))
}

// LaplaceVariance returns the variance of the Laplace distribution with
// the given scale: 2*scale^2. The paper uses this as the approximation
// for the double-geometric variance in Section 5.1.
func LaplaceVariance(scale float64) float64 {
	return 2 * scale * scale
}
