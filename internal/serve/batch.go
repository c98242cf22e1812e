package serve

import (
	"errors"
	"fmt"
	"net/http"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/httpx"
	"hcoc/internal/query"
	"hcoc/internal/query/plan"
)

// maxBatchQueries bounds one POST /v1/query/batch body; a request this
// size still costs only one engine pass, the bound just keeps a single
// call from monopolizing the serving goroutine.
const maxBatchQueries = 4096

// maxTopCodedCells bounds the top-coded table cells one request may ask
// for, summed over its queries and over every release a stats, series
// or compare entry reports on. Each report allocates and encodes
// topcode+1 cells, so without it a request of a few hundred bytes
// could make the server allocate gigabytes.
const maxTopCodedCells = hcoc.DefaultK

// errTopCoded refuses a request over maxTopCodedCells.
var errTopCoded = fmt.Errorf("request asks for more than %d top-coded cells (topcode+1 per report)", maxTopCodedCells)

// maxRankStats bounds the rank statistics (q and k values) one request
// may ask for, counted like the top-coded cells: two per entry at the
// batch bound, the shape the load generators send. Each one is a rank
// search and an encoded value per report, so without it a request of a
// few hundred kilobytes could make the server allocate tens of
// megabytes.
const maxRankStats = 2 * maxBatchQueries

// errRankStats refuses a request over maxRankStats.
var errRankStats = fmt.Errorf("request asks for more than %d rank statistics (q and k values per report)", maxRankStats)

// batchQueryRequest is the body of POST /v1/query/batch. Release is the
// default release for entries that name none; entries with cross-release
// ops list their own.
type batchQueryRequest struct {
	Release string             `json:"release"`
	Queries []client.NodeQuery `json:"queries"`
}

// batchQueryResponse is the body of a successful POST /v1/query/batch:
// results index-aligned with the request's queries.
type batchQueryResponse struct {
	Release string              `json:"release"`
	Results []client.NodeResult `json:"results"`
}

// isPlain reports whether every entry is a plain node query (no op,
// no releases): the shape that keeps its whole-batch answers, a 400
// when the batch names no release and a 404 when that release is
// unknown.
func (req batchQueryRequest) isPlain() bool {
	for _, q := range req.Queries {
		if q.Op != "" || len(q.Releases) > 0 {
			return false
		}
	}
	return true
}

// handleBatchQuery evaluates N queries in a single engine pass through
// the scan-sharing planner: each distinct release key is fetched
// exactly once, and every failure is reported on the query it belongs
// to — except that a plain batch answers as a whole when it names no
// release (400) or names one neither cache tier holds (404).
func (s *Server) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	var req batchQueryRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		httpx.WriteError(w, http.StatusBadRequest, "no queries in batch")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		httpx.WriteError(w, http.StatusBadRequest, "batch of %d queries exceeds the %d-query limit", len(req.Queries), maxBatchQueries)
		return
	}
	plain := req.isPlain()
	if plain && releaseID(req.Release) == "" {
		httpx.WriteError(w, http.StatusBadRequest, "missing release")
		return
	}
	qs, err := lower(req.Release, req.Queries)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	results := s.eng.EvalBatch(qs)
	resp := batchQueryResponse{Release: req.Release, Results: make([]client.NodeResult, len(results))}
	for i, res := range results {
		if plain && errors.Is(res.Err, engine.ErrNotCached) {
			httpx.WriteError(w, http.StatusNotFound, "release not cached; POST /v1/release to (re)compute it")
			return
		}
		resp.Results[i] = toBatchItem(req.Queries[i], res)
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// lower turns wire entries into the planner IR; every node query, GET
// and batch alike, goes through it. Ops parse with "" meaning stats
// (unknown names stay put and fail per query), release ids lose their
// wire "r-" prefix, and entries naming no releases read the request's
// default release when it has one. Before any release is read, it
// refuses a request whose top-coded tables would exceed
// maxTopCodedCells or whose rank statistics would exceed maxRankStats.
func lower(release string, entries []client.NodeQuery) ([]plan.Query, error) {
	// Every entry naming no releases shares one key slice; the planner
	// only reads it.
	var def []string
	if key := releaseID(release); key != "" {
		def = []string{key}
	}
	qs := make([]plan.Query, len(entries))
	cells, ranks := 0, 0
	for i, q := range entries {
		op, err := plan.ParseOp(q.Op)
		if err != nil {
			op = plan.Op(q.Op)
		}
		keys := def
		if len(q.Releases) > 0 {
			keys = make([]string, len(q.Releases))
			for j, rel := range q.Releases {
				keys[j] = releaseID(rel)
			}
		}
		if reports := len(keys); reports > 0 && (op == plan.OpStats || op == plan.OpSeries || op == plan.OpCompare) {
			// Each report holds topcode+1 cells. Checking the topcode
			// alone first keeps the product from overflowing; the list
			// lengths are bounded by the body, so their product is not.
			if q.TopCode > 0 {
				if q.TopCode >= maxTopCodedCells {
					return nil, errTopCoded
				}
				if cells += (q.TopCode + 1) * reports; cells > maxTopCodedCells {
					return nil, errTopCoded
				}
			}
			if ranks += (len(q.Quantiles) + len(q.KthLargest)) * reports; ranks > maxRankStats {
				return nil, errRankStats
			}
		}
		qs[i] = plan.Query{Op: op, Releases: keys, Node: q.Node, Params: query.Params{
			Quantiles:  q.Quantiles,
			KthLargest: q.KthLargest,
			TopCode:    q.TopCode,
		}}
	}
	return qs, nil
}

// toBatchItem renders one planner result in the wire shape, echoing the
// entry's op and release ids as sent.
func toBatchItem(q client.NodeQuery, res plan.Result) client.NodeResult {
	item := client.NodeResult{
		NodeReport: client.NodeReport{Node: q.Node},
		Op:         q.Op,
		Releases:   q.Releases,
	}
	if res.Err != nil {
		item.Error = res.Err.Error()
		return item
	}
	switch {
	case res.Report != nil:
		item.NodeReport = reportToQueryResponse(q, *res.Report)
	case res.Series != nil:
		item.Series = make([]client.SeriesPoint, len(res.Series))
		for i, pt := range res.Series {
			// Echo the wire release id (index-aligned with the entry's
			// releases), not the engine key the planner worked with.
			rel := pt.Release
			if i < len(q.Releases) {
				rel = q.Releases[i]
			}
			item.Series[i] = client.SeriesPoint{Release: rel, NodeReport: reportToQueryResponse(q, pt.Report)}
		}
	case res.Left != nil && res.Right != nil:
		left := reportToQueryResponse(q, *res.Left)
		right := reportToQueryResponse(q, *res.Right)
		item.Left, item.Right = &left, &right
	}
	item.EMD = res.EMD
	item.GroupsDelta = res.GroupsDelta
	item.PeopleDelta = res.PeopleDelta
	return item
}

// reportToQueryResponse converts a query-layer report to the wire shape,
// re-pairing the rank statistics with the parameters that requested
// them.
func reportToQueryResponse(q client.NodeQuery, rep query.Report) client.NodeReport {
	resp := client.NodeReport{
		Node:     q.Node,
		Groups:   rep.Groups,
		People:   rep.People,
		Mean:     rep.Mean,
		Median:   rep.Median,
		Gini:     rep.Gini,
		TopCoded: rep.TopCoded,
	}
	for i, size := range rep.Quantiles {
		resp.Quantiles = append(resp.Quantiles, client.QuantileValue{Q: q.Quantiles[i], Size: size})
	}
	for i, size := range rep.KthLargest {
		resp.KthLargest = append(resp.KthLargest, client.OrderStat{K: q.KthLargest[i], Size: size})
	}
	return resp
}

// hierarchyID strips the "h-" prefix hierarchy ids are served with.
func hierarchyID(id string) string {
	if len(id) > 2 && id[:2] == "h-" {
		return id[2:]
	}
	return id
}

// handleBudget reports a hierarchy's privacy-budget position without
// spending anything: what past computations cost (per version and
// across all versions), what remains under the per-version and
// continual-observation bounds, and whether each bound is enforced.
// The top-level spent/remaining fields describe the head version under
// the per-version -max-epsilon-per-hierarchy bound; the continual_*
// fields the cross-version account.
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	l, ok := s.logs.Get(hierarchyID(r.PathValue("id")))
	if !ok {
		httpx.WriteError(w, http.StatusNotFound, "unknown hierarchy %q; POST /v1/hierarchy first", r.PathValue("id"))
		return
	}
	head := l.Head()
	spent, remaining, limit, enforced := s.eng.BudgetStatus(head.Fingerprint)
	resp := client.Budget{
		Hierarchy:              "h-" + l.ID(),
		SpentEpsilon:           spent,
		RemainingEpsilon:       remaining,
		MaxEpsilonPerHierarchy: limit,
		Enforced:               enforced,
	}
	for _, v := range l.Versions() {
		vs, _, _, _ := s.eng.BudgetStatus(v.Fingerprint)
		resp.Versions = append(resp.Versions, client.VersionBudget{
			Version:      v.Seq,
			Fingerprint:  v.Fingerprint,
			SpentEpsilon: vs,
		})
	}
	resp.ContinualSpentEpsilon, resp.ContinualRemainingEpsilon, resp.MaxEpsilonContinual, resp.ContinualEnforced =
		s.eng.ContinualStatus(l.Fingerprints())
	httpx.WriteJSON(w, http.StatusOK, resp)
}
