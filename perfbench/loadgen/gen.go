package loadgen

import "math/rand"

// Class names an operation class. Samples, latency digests and the
// client span of one operation are keyed by it.
type Class string

// The operation classes the workloads issue.
const (
	// Release is POST /v1/release.
	Release Class = "release"
	// Query is a single-node query.
	Query Class = "query"
	// Batch is a batch of node queries against one release.
	Batch Class = "batch"
	// Cross is a batch of cross-release aggregates (emd, delta, series,
	// compare).
	Cross Class = "cross"
	// Download is an artifact download.
	Download Class = "download"
	// Append is a hierarchy event append.
	Append Class = "append"
)

// Classes lists every class in report order.
var Classes = []Class{Release, Query, Batch, Cross, Download, Append}

// Weight is one entry of a Mix: a class and its relative frequency.
type Weight struct {
	Class Class
	N     int
}

// Mix is a fixed weighted choice among classes.
type Mix []Weight

// Op is one generated operation. Arg seeds whatever parameters the
// workload draws for it (a node, a release, a release seed), so the
// whole sequence, parameters included, is a function of the generator's
// seed and stream.
type Op struct {
	Stream, Seq int
	Class       Class
	Arg         int64
}

// Generator draws the operation sequence of one stream. It is not safe
// for concurrent use: each stream owns one.
type Generator struct {
	rng    *rand.Rand
	mix    Mix
	total  int
	stream int
	seq    int
}

// NewGenerator returns the generator of one stream of a run: equal
// seeds, streams and mixes give equal sequences. A mix is a constant of
// its workload, so one without positive weight is a bug and panics.
func NewGenerator(seed int64, stream int, mix Mix) *Generator {
	total := 0
	for _, w := range mix {
		total += w.N
	}
	if total <= 0 {
		panic("loadgen: mix has no positive weight")
	}
	return &Generator{
		rng:    rand.New(rand.NewSource(StreamSeed(seed, stream))),
		mix:    mix,
		total:  total,
		stream: stream,
	}
}

// splitmix64 is the output function of the splitmix64 generator.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// golden is the splitmix64 increment.
const golden = 0x9E3779B97F4A7C15

// StreamSeed derives the seed of one stream of a run from the run seed,
// so neighbouring run seeds and streams do not share sequences. The
// result is nonnegative.
func StreamSeed(seed int64, stream int) int64 {
	return int64(splitmix64(uint64(seed)+uint64(stream+1)*golden) >> 1)
}

// Next draws the stream's next operation.
func (g *Generator) Next() Op {
	n := g.rng.Intn(g.total)
	class := g.mix[len(g.mix)-1].Class
	for _, w := range g.mix {
		if n < w.N {
			class = w.Class
			break
		}
		n -= w.N
	}
	op := Op{Stream: g.stream, Seq: g.seq, Class: class, Arg: g.rng.Int63()}
	g.seq++
	return op
}

// Params draws an operation's parameters from a seed: a splitmix64
// stream, so drawing allocates nothing and equal seeds draw equal
// values.
type Params struct{ state uint64 }

// Params returns the parameter stream of op.
func (op Op) Params() *Params { return &Params{state: uint64(op.Arg)} }

// NewParams returns a parameter stream for values a workload derives
// outside any operation.
func NewParams(seed int64) *Params { return &Params{state: uint64(seed)} }

// Intn returns a value in [0, n); n must be positive.
func (p *Params) Intn(n int) int {
	p.state += golden
	return int(splitmix64(p.state) % uint64(n))
}
