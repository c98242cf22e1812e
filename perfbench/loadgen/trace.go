package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Layer names the boundary a span was recorded at.
type Layer string

// The span layers, outermost first.
const (
	// LayerClient is one SDK call: the root span of an operation.
	LayerClient Layer = "client"
	// LayerAttempt is one HTTP attempt of an SDK call, recorded by the
	// transport of the benchmark's client or of the gateway's backend
	// clients.
	LayerAttempt Layer = "attempt"
	// LayerGateway is a gateway handler.
	LayerGateway Layer = "gateway"
	// LayerServe is a serve handler.
	LayerServe Layer = "serve"
)

// Span is one timed interval at a layer boundary, in nanoseconds since
// the run's clock epoch. Parent is the span that caused it (0 for an
// operation's root) and Op the operation all spans of one request
// share.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Layer  Layer  `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Spans keeps the spans of a traced run in memory until the run writes
// them out. It is safe for concurrent use.
type Spans struct {
	next atomic.Int64
	mu   sync.Mutex
	list []Span
}

// NewID allocates a span id, so that children can name a span before
// it ends.
func (s *Spans) NewID() int64 { return s.next.Add(1) }

// Add records a finished span.
func (s *Spans) Add(sp Span) {
	s.mu.Lock()
	s.list = append(s.list, sp)
	s.mu.Unlock()
}

// Reset drops every span recorded so far, so a phase starts empty.
func (s *Spans) Reset() {
	s.mu.Lock()
	s.list = nil
	s.mu.Unlock()
}

// List returns a copy of the recorded spans.
func (s *Spans) List() []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.list...)
}

// WriteJSON writes spans as JSON lines, one span per line.
func WriteJSON(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}

// Covered returns how much of [start, end) the union of the spans
// covers.
func Covered(start, end int64, spans []Span) int64 {
	ivs := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		if lo, hi := max(s.Start, start), min(s.End, end); lo < hi {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	reach := start
	for _, iv := range ivs {
		if lo := max(iv[0], reach); iv[1] > lo {
			total += iv[1] - lo
			reach = iv[1]
		}
	}
	return total
}

// Self is a span's duration minus the part of it its children cover.
func Self(s Span, children []Span) int64 { return s.Dur() - Covered(s.Start, s.End, children) }

// Index links spans to the spans they caused.
type Index struct{ kids map[int64][]Span }

// NewIndex indexes spans by parent.
func NewIndex(spans []Span) *Index {
	x := &Index{kids: make(map[int64][]Span)}
	for _, s := range spans {
		x.kids[s.Parent] = append(x.kids[s.Parent], s)
	}
	return x
}

// Caused returns the handler spans (gateway or serve) that the outgoing
// HTTP attempts of span id caused.
func (x *Index) Caused(id int64) []Span {
	var out []Span
	for _, a := range x.kids[id] {
		if a.Layer != LayerAttempt {
			continue
		}
		for _, h := range x.kids[a.ID] {
			if h.Layer == LayerGateway || h.Layer == LayerServe {
				out = append(out, h)
			}
		}
	}
	return out
}

// Unlinked is time below the serve handlers that no span can tie to a
// request, summed over one phase in nanoseconds: blob store calls, the
// part of them spent in the S3 stub's handler, and engine-reported
// computation.
type Unlinked struct {
	Blob, Stub, Compute int64
}

// Attribution splits the client-observed time of one phase into the
// self time of each layer, in nanoseconds.
type Attribution struct {
	// Busy is the summed duration of every operation's client span.
	Busy int64
	// Self maps a layer to its self time summed over the phase: client,
	// gateway, serve, compute, blob and s3stub.
	Self map[string]int64
	// Parallel is the time a span's children spent running side by
	// side: their summed durations minus the union they cover.
	Parallel int64
	// ClientSelf lists each operation's client self time, and
	// GatewaySelf each gateway request's.
	ClientSelf, GatewaySelf []int64
}

// Attribute computes the attribution of one phase. A layer's self time
// is its spans' time minus what the layer below covered: client time
// minus the handler spans it caused, gateway time minus the serve spans
// it caused, serve time minus the unlinked blob and compute time, blob
// time minus stub time.
func Attribute(spans []Span, u Unlinked) Attribution {
	x := NewIndex(spans)
	a := Attribution{Self: make(map[string]int64)}
	var serve int64
	for _, s := range spans {
		switch s.Layer {
		case LayerClient, LayerGateway:
			kids := x.Caused(s.ID)
			self := Self(s, kids)
			var sum int64
			for _, k := range kids {
				sum += k.Dur()
			}
			a.Parallel += sum - (s.Dur() - self)
			if s.Layer == LayerClient {
				a.Busy += s.Dur()
				a.Self["client"] += self
				a.ClientSelf = append(a.ClientSelf, self)
			} else {
				a.Self["gateway"] += self
				a.GatewaySelf = append(a.GatewaySelf, self)
			}
		case LayerServe:
			serve += s.Dur()
		}
	}
	a.Self["serve"] = serve - u.Blob - u.Compute
	a.Self["compute"] = u.Compute
	a.Self["blob"] = u.Blob - u.Stub
	a.Self["s3stub"] = u.Stub
	return a
}

// Residual is the share of the client-observed time that the layers'
// self times, each counted as at least zero and with time spent in
// parallel counted once, leave unexplained. Each self time is a span's
// time minus its children's, so the sum telescopes to Busy and the
// residual is exactly zero when every handler span is linked to an
// operation and the unlinked time fits inside the serve handlers. It
// goes negative when handler spans belong to no operation, or when
// blob, stub or compute time exceeds the time of the layer that holds
// it. It never goes positive: a boundary that records nothing leaves
// its time in the layer above, which only Check's expected layers
// catch.
func (a Attribution) Residual() float64 {
	if a.Busy == 0 {
		return 0
	}
	sum := -a.Parallel
	for _, v := range a.Self {
		sum += max(v, 0)
	}
	return float64(a.Busy-sum) / float64(a.Busy)
}

// Check returns every reason not to trust the attribution: a layer
// whose self time is negative, because the layer below reported more
// time than the spans above it hold; a layer of expect that recorded
// no self time, a boundary the phase should have crossed but did not
// measure; and a residual larger than limit in size.
func (a Attribution) Check(expect []string, limit float64) []error {
	var errs []error
	layers := make([]string, 0, len(a.Self))
	for layer := range a.Self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		if v := a.Self[layer]; v < 0 {
			errs = append(errs, fmt.Errorf("%s self time is %.3f ms: the layers below it report more time than its spans hold", layer, float64(v)/1e6))
		}
	}
	for _, layer := range expect {
		if a.Self[layer] == 0 {
			errs = append(errs, fmt.Errorf("%s recorded no time: a boundary the workload crosses is not measured", layer))
		}
	}
	if r := a.Residual(); math.Abs(r) > limit {
		errs = append(errs, fmt.Errorf("the layers' self times miss the client-observed busy time by %.1f%%, more than %.0f%%", 100*r, 100*limit))
	}
	return errs
}
