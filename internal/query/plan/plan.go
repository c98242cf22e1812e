package plan

import (
	"fmt"

	"hcoc"
	"hcoc/internal/query"
)

// Op selects the aggregate a query evaluates.
type Op string

// The supported aggregates. OpStats is the classic single-release node
// report; the others span releases of the same hierarchy.
const (
	// OpStats evaluates one node of one release: the always-computed
	// summary statistics plus whatever Params requests.
	OpStats Op = "stats"
	// OpEMD streams the earthmover's distance between two releases of a
	// node — the drift measure the paper evaluates accuracy with —
	// together with the group/people deltas the same pass computes.
	OpEMD Op = "emd"
	// OpDelta reports the per-node group-count and people-count change
	// between two releases.
	OpDelta Op = "delta"
	// OpSeries evaluates the node report on each release of an ordered
	// list — a time series of Gini/quantiles/median across release
	// versions.
	OpSeries Op = "series"
	// OpCompare evaluates the full node report on exactly two releases
	// side by side — e.g. an hc-estimated release against an hg one.
	OpCompare Op = "compare"
)

// ParseOp parses a wire op name; the empty string selects OpStats,
// keeping pre-cross-release batch bodies valid.
func ParseOp(s string) (Op, error) {
	switch Op(s) {
	case "":
		return OpStats, nil
	case OpStats, OpEMD, OpDelta, OpSeries, OpCompare:
		return Op(s), nil
	default:
		return "", fmt.Errorf("plan: unknown op %q (want stats|emd|delta|series|compare)", s)
	}
}

// MaxSeriesReleases bounds the release list of one OpSeries query, so a
// single batch entry cannot force an unbounded number of artifact
// fetches.
const MaxSeriesReleases = 64

// Query is one entry of a batch in the planner's IR: an aggregate, the
// release keys it reads (engine keys, no "r-" prefix), the hierarchy
// node, and the optional statistics parameters (used by OpStats,
// OpSeries and OpCompare; ignored by OpEMD and OpDelta).
type Query struct {
	// Op is the aggregate; the zero value is not valid — use ParseOp.
	Op Op
	// Releases lists the release keys the query reads: exactly one for
	// OpStats, exactly two for OpEMD/OpDelta/OpCompare, two or more (in
	// series order) for OpSeries.
	Releases []string
	// Node is the hierarchy node path to evaluate on every release.
	Node string
	// Params selects the optional statistics.
	Params query.Params
}

// validate reports why a query is malformed, before any fetch happens
// on its behalf.
func (q Query) validate() error {
	switch q.Op {
	case OpStats:
		if len(q.Releases) != 1 {
			return fmt.Errorf("plan: stats reads exactly 1 release, got %d", len(q.Releases))
		}
	case OpEMD, OpDelta, OpCompare:
		if len(q.Releases) != 2 {
			return fmt.Errorf("plan: %s reads exactly 2 releases, got %d", q.Op, len(q.Releases))
		}
	case OpSeries:
		if len(q.Releases) < 2 {
			return fmt.Errorf("plan: series reads at least 2 releases, got %d", len(q.Releases))
		}
		if len(q.Releases) > MaxSeriesReleases {
			return fmt.Errorf("plan: series of %d releases exceeds the %d-release limit", len(q.Releases), MaxSeriesReleases)
		}
	default:
		return fmt.Errorf("plan: unknown op %q (want stats|emd|delta|series|compare)", string(q.Op))
	}
	for _, key := range q.Releases {
		if key == "" {
			return fmt.Errorf("plan: %s query names an empty release key", q.Op)
		}
	}
	if q.Node == "" {
		return fmt.Errorf("plan: %s query names no node", q.Op)
	}
	return nil
}

// Source fetches one release by key. The engine (LRU, then durable
// store) is the only production Source; tests substitute fakes.
type Source interface {
	// Fetch returns the run-length release for key, or an error (such
	// as engine.ErrNotCached) that becomes the per-query error of every
	// query reading key.
	Fetch(key string) (hcoc.SparseHistograms, error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(key string) (hcoc.SparseHistograms, error)

// Fetch implements Source.
func (f SourceFunc) Fetch(key string) (hcoc.SparseHistograms, error) { return f(key) }

// Point is one release's entry in an OpSeries result, in request order.
type Point struct {
	// Release is the release key the point was evaluated on.
	Release string
	// Report is the node report for that release.
	Report query.Report
}

// Result is the outcome of one Query: exactly one of the op-specific
// payloads, or Err. Per-query errors never fail the batch.
type Result struct {
	// Err names why this query (and only this query) failed.
	Err error
	// Report answers OpStats.
	Report *query.Report
	// EMD answers OpEMD (the same pass also fills the deltas below).
	EMD *int64
	// GroupsDelta and PeopleDelta answer OpDelta and OpEMD: second
	// release minus first.
	GroupsDelta, PeopleDelta *int64
	// Series answers OpSeries, index-aligned with Query.Releases.
	Series []Point
	// Left and Right answer OpCompare, in Query.Releases order.
	Left, Right *query.Report
}

// Plan is a batch of queries grouped by release key: the greedy
// scan-sharing schedule under which each distinct artifact is fetched
// exactly once per Execute, however many queries read it. Greedy is
// optimal here — the fetch set is exactly the set of distinct keys
// named by valid queries, and no ordering of fetches can beat fetching
// each once — which is why no statistics machinery is needed.
type Plan struct {
	queries []Query
	invalid []error  // index-aligned with queries; nil = valid
	keys    []string // distinct keys of valid queries, first-use order
}

// New plans a batch: each query is validated (malformed ones are
// recorded and never cause a fetch) and the distinct release keys of
// the valid ones are collected in first-use order.
func New(queries []Query) *Plan {
	p := &Plan{queries: queries, invalid: make([]error, len(queries))}
	seen := make(map[string]bool)
	for i, q := range queries {
		if err := q.validate(); err != nil {
			p.invalid[i] = err
			continue
		}
		for _, key := range q.Releases {
			if !seen[key] {
				seen[key] = true
				p.keys = append(p.keys, key)
			}
		}
	}
	return p
}

// Keys lists the distinct release keys Execute will fetch, in first-use
// order — one fetch per key, the scan-sharing contract the tests pin.
func (p *Plan) Keys() []string { return p.keys }

// Execute fetches each distinct release key exactly once from src, then
// evaluates every query against the shared artifacts with lazy run
// scans. Results are index-aligned with the planned queries; fetch
// failures surface as per-query errors on the queries reading that key.
func (p *Plan) Execute(src Source) []Result {
	rels := make(map[string]hcoc.SparseHistograms, len(p.keys))
	errs := make(map[string]error, len(p.keys))
	for _, key := range p.keys {
		rel, err := src.Fetch(key)
		if err != nil {
			errs[key] = fmt.Errorf("release %q: %w", key, err)
			continue
		}
		rels[key] = rel
	}
	out := make([]Result, len(p.queries))
	for i, q := range p.queries {
		if p.invalid[i] != nil {
			out[i] = Result{Err: p.invalid[i]}
			continue
		}
		out[i] = eval(q, rels, errs)
	}
	return out
}

// eval answers one valid query against the fetched artifacts.
func eval(q Query, rels map[string]hcoc.SparseHistograms, errs map[string]error) Result {
	// A query whose releases did not all fetch fails with the first
	// fetch error, in release order.
	hists := make([]hcoc.SparseHistograms, len(q.Releases))
	for i, key := range q.Releases {
		if err := errs[key]; err != nil {
			return Result{Err: err}
		}
		hists[i] = rels[key]
	}
	switch q.Op {
	case OpStats:
		rep, err := report(hists[0], q.Releases[0], q.Node, q.Params)
		if err != nil {
			return Result{Err: err}
		}
		return Result{Report: rep}
	case OpEMD, OpDelta:
		a, okA := hists[0][q.Node]
		b, okB := hists[1][q.Node]
		if !okA {
			return Result{Err: nodeErr(q.Releases[0], q.Node)}
		}
		if !okB {
			return Result{Err: nodeErr(q.Releases[1], q.Node)}
		}
		st := scanPair(a, b)
		groups, people := st.GroupsB-st.GroupsA, st.PeopleB-st.PeopleA
		res := Result{GroupsDelta: &groups, PeopleDelta: &people}
		if q.Op == OpEMD {
			emd := st.EMD
			res.EMD = &emd
		}
		return res
	case OpSeries:
		series := make([]Point, len(q.Releases))
		for i, key := range q.Releases {
			rep, err := report(hists[i], key, q.Node, q.Params)
			if err != nil {
				return Result{Err: err}
			}
			series[i] = Point{Release: key, Report: *rep}
		}
		return Result{Series: series}
	case OpCompare:
		left, err := report(hists[0], q.Releases[0], q.Node, q.Params)
		if err != nil {
			return Result{Err: err}
		}
		right, err := report(hists[1], q.Releases[1], q.Node, q.Params)
		if err != nil {
			return Result{Err: err}
		}
		return Result{Left: left, Right: right}
	}
	return Result{Err: fmt.Errorf("plan: unknown op %q", string(q.Op))} // unreachable after validate
}

// report evaluates the single-scan node report on one release, naming
// the release in node-missing errors (the mismatched-hierarchies case).
func report(rel hcoc.SparseHistograms, key, node string, p query.Params) (*query.Report, error) {
	s, ok := rel[node]
	if !ok {
		return nil, nodeErr(key, node)
	}
	rep, err := query.ReportSparse(s, p)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// nodeErr names a node one release lacks — either an unknown node or
// two releases of different hierarchies in one cross-release query.
func nodeErr(key, node string) error {
	return fmt.Errorf("plan: release %q has no node %q", key, node)
}
