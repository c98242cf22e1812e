package noise

import (
	"math"
	"math/rand"
)

// Gen wraps a seeded random source with the two mechanisms used in the
// paper. A Gen is not safe for concurrent use; create one per goroutine.
type Gen struct {
	r *rand.Rand
	// scale, alpha and logAlpha memoize DoubleGeometric's constants for
	// the last scale it drew at. Callers draw whole histograms at one
	// scale, and exp and log dominate a draw.
	scale, alpha, logAlpha float64
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
// the output exactly integral.
func (g *Gen) DoubleGeometric(scale float64) int64 {
	if scale <= 0 {
		panic("noise: scale must be positive")
	}
	if scale != g.scale {
		g.scale = scale
		g.alpha = math.Exp(-1 / scale)
		g.logAlpha = math.Log(g.alpha)
	}
	return g.geometric() - g.geometric()
}

// geometric samples the number of failures before the first success of a
// Bernoulli(1-alpha) process, i.e. P(G = k) = (1-alpha) * alpha^k for
// k = 0, 1, 2, ... via inversion, with alpha the memoized g.alpha.
func (g *Gen) geometric() int64 {
	if g.alpha <= 0 {
		return 0
	}
	// U in (0,1); floor(log(U)/log(alpha)) is Geometric(1-alpha).
	u := 1 - g.r.Float64() // in (0, 1]
	return int64(math.Floor(math.Log(u) / g.logAlpha))
}

// Laplace samples real-valued noise from the Laplace distribution with
// the given scale (scale = sensitivity/epsilon).
func (g *Gen) Laplace(scale float64) float64 {
	if scale <= 0 {
		panic("noise: scale must be positive")
	}
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
