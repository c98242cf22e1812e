package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/cluster"
	"hcoc/internal/engine"
	"hcoc/internal/serve"
)

// groupRecord and hierarchyRequest mirror the backend upload shape —
// the gateway must parse uploads itself to fingerprint the tree, which
// is the ring key.
type groupRecord struct {
	Path []string `json:"path"`
	Size int64    `json:"size"`
}

type hierarchyRequest struct {
	Root   string        `json:"root"`
	Groups []groupRecord `json:"groups"`
}

// handleHierarchy fingerprints the upload locally and fans it out to
// all R ring owners in parallel, so replicas already hold the tree
// when a failover read or release arrives. One success is enough to
// answer (uploads are content-addressed and idempotent, so stragglers
// converge on retry); zero successes surface the last failure.
func (g *Gateway) handleHierarchy(w http.ResponseWriter, r *http.Request) {
	var req hierarchyRequest
	if !serve.DecodeJSON(w, r, &req) {
		return
	}
	if req.Root == "" {
		req.Root = "root"
	}
	if len(req.Groups) == 0 {
		serve.WriteError(w, http.StatusBadRequest, "no groups in upload")
		return
	}
	groups := make([]hcoc.Group, len(req.Groups))
	for i, gr := range req.Groups {
		if gr.Size < 0 {
			serve.WriteError(w, http.StatusBadRequest, "group %d has negative size %d", i, gr.Size)
			return
		}
		groups[i] = hcoc.Group{Path: gr.Path, Size: gr.Size}
	}
	tree, err := hcoc.BuildHierarchy(req.Root, groups)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "building hierarchy: %v", err)
		return
	}
	fp := engine.FingerprintTree(tree)
	owners := g.cluster.Owners(fp)
	if len(owners) == 0 {
		writeClientError(w, cluster.ErrNoBackends)
		return
	}
	g.mu.Lock()
	g.fanouts++
	g.mu.Unlock()

	var wg sync.WaitGroup
	results := make([]client.Hierarchy, len(owners))
	errs := make([]error, len(owners))
	for i, u := range owners {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			c := g.client(u)
			if c == nil {
				errs[i] = fmt.Errorf("backend %s left the cluster", u)
				return
			}
			start := time.Now()
			h, err := c.UploadHierarchy(r.Context(), req.Root, groups)
			g.record(u, time.Since(start), err)
			g.reportHealth(u, err)
			results[i], errs[i] = h, err
		}(i, u)
	}
	wg.Wait()
	for i := range owners {
		if errs[i] == nil {
			serve.WriteJSON(w, http.StatusOK, results[i])
			return
		}
	}
	// All owners failed. Prefer an authoritative refusal (a terminal
	// APIError such as 507 store-full) over whichever transport error
	// happened to come last — it names what the caller can actually fix.
	for _, err := range errs {
		if terminal(err) {
			writeClientError(w, err)
			return
		}
	}
	writeClientError(w, errs[len(errs)-1])
}

// appendEventsRequest mirrors the backend event-append body.
type appendEventsRequest struct {
	Events []client.Event `json:"events"`
}

// handleAppendEvents fans an event append out to all R ring owners of
// the hierarchy in parallel, so every replica's event log advances to
// the same head. The caller's If-Match precondition forwards verbatim
// to each owner: a stale fingerprint conflicts identically everywhere,
// and against divergent replicas the first success answers while the
// conflicting owners surface in the next append. One success is enough
// to answer; zero successes prefer an authoritative refusal (conflict,
// validation) over whichever transport error came last.
func (g *Gateway) handleAppendEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req appendEventsRequest
	if !serve.DecodeJSON(w, r, &req) {
		return
	}
	if len(req.Events) == 0 {
		serve.WriteError(w, http.StatusBadRequest, "no events in request")
		return
	}
	ifMatch := strings.Trim(r.Header.Get("If-Match"), `"`)
	owners := g.cluster.Owners(hierarchyFP(id))
	if len(owners) == 0 {
		writeClientError(w, cluster.ErrNoBackends)
		return
	}
	g.mu.Lock()
	g.fanouts++
	g.mu.Unlock()

	var wg sync.WaitGroup
	results := make([]client.AppendResult, len(owners))
	errs := make([]error, len(owners))
	for i, u := range owners {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			c := g.client(u)
			if c == nil {
				errs[i] = fmt.Errorf("backend %s left the cluster", u)
				return
			}
			start := time.Now()
			res, err := c.AppendEvents(r.Context(), id, req.Events, ifMatch)
			g.record(u, time.Since(start), err)
			g.reportHealth(u, err)
			results[i], errs[i] = res, err
		}(i, u)
	}
	wg.Wait()
	for i := range owners {
		if errs[i] == nil {
			serve.WriteJSON(w, http.StatusOK, results[i])
			return
		}
	}
	for _, err := range errs {
		if terminal(err) {
			writeClientError(w, err)
			return
		}
	}
	writeClientError(w, errs[len(errs)-1])
}

// versionsResponse mirrors the backend version-listing body.
type versionsResponse struct {
	Hierarchy string                    `json:"hierarchy"`
	Root      string                    `json:"root,omitempty"`
	Head      int64                     `json:"head"`
	Versions  []client.HierarchyVersion `json:"versions"`
}

// handleVersions reads the version history from the hierarchy's
// primary, failing over down the replica order.
func (g *Gateway) handleVersions(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	order := g.routeHierarchy(hierarchyFP(id))
	var versions []client.HierarchyVersion
	err := g.forward(order, func(c *client.Client, u string) error {
		vs, err := c.HierarchyVersions(r.Context(), id)
		if err != nil {
			return err
		}
		versions = vs
		return nil
	})
	if err != nil {
		writeClientError(w, err)
		return
	}
	resp := versionsResponse{Hierarchy: id, Versions: versions}
	if n := len(versions); n > 0 {
		resp.Head = versions[n-1].Version
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// scatter fans op across every live backend in parallel and
// concatenates the successful results (op closures carry their own
// request context). All-failed returns the last error; a dead cluster
// the typed ErrNoBackends.
func scatter[T any](g *Gateway, op func(c *client.Client) ([]T, error)) ([]T, error) {
	backends := g.cluster.Live()
	if len(backends) == 0 {
		return nil, cluster.ErrNoBackends
	}
	var wg sync.WaitGroup
	results := make([][]T, len(backends))
	errs := make([]error, len(backends))
	for i, u := range backends {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			c := g.client(u)
			if c == nil {
				errs[i] = fmt.Errorf("backend %s left the cluster", u)
				return
			}
			start := time.Now()
			out, err := op(c)
			g.record(u, time.Since(start), err)
			g.reportHealth(u, err)
			results[i], errs[i] = out, err
		}(i, u)
	}
	wg.Wait()
	var out []T
	ok := false
	var lastErr error
	for i := range backends {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		ok = true
		out = append(out, results[i]...)
	}
	if !ok {
		return nil, lastErr
	}
	return out, nil
}

// handleListHierarchies merges the hierarchy listings of every live
// backend, deduplicated by id (uploads fan out to R owners).
func (g *Gateway) handleListHierarchies(w http.ResponseWriter, r *http.Request) {
	all, err := scatter(g, func(c *client.Client) ([]client.Hierarchy, error) {
		return c.Hierarchies(r.Context())
	})
	if err != nil {
		writeClientError(w, err)
		return
	}
	seen := make(map[string]bool, len(all))
	out := make([]client.Hierarchy, 0, len(all))
	for _, h := range all {
		if seen[h.ID] {
			continue
		}
		seen[h.ID] = true
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	serve.WriteJSON(w, http.StatusOK, out)
}

// handleListReleases merges the durable-artifact listings across the
// cluster, deduplicated by release id — and opportunistically learns
// release→hierarchy ownership from the merged metadata.
func (g *Gateway) handleListReleases(w http.ResponseWriter, r *http.Request) {
	all, err := scatter(g, func(c *client.Client) ([]client.ReleaseArtifact, error) {
		return c.Releases(r.Context())
	})
	if err != nil {
		writeClientError(w, err)
		return
	}
	seen := make(map[string]bool, len(all))
	out := make([]client.ReleaseArtifact, 0, len(all))
	for _, a := range all {
		if seen[a.Release] {
			continue
		}
		seen[a.Release] = true
		out = append(out, a)
		g.learnRelease(a.Release, hierarchyFP(a.Hierarchy))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Release < out[j].Release })
	serve.WriteJSON(w, http.StatusOK, out)
}

// releaseRequest mirrors the backend body, async flag included.
type releaseRequest struct {
	Hierarchy string   `json:"hierarchy"`
	Algorithm string   `json:"algorithm"`
	Epsilon   float64  `json:"epsilon"`
	K         int      `json:"k"`
	Methods   []string `json:"methods"`
	Merge     string   `json:"merge"`
	Seed      int64    `json:"seed"`
	Workers   int      `json:"workers"`
	Version   int64    `json:"version"`
	Async     bool     `json:"async"`
}

// handleRelease routes a release to the hierarchy's primary, failing
// over down the replica order. The computing backend writes the
// artifact to the shared store, where every other backend reads the
// same bytes. Async jobs stay backend-local (the job table is not
// shared) — the gateway records which backend runs each job.
func (g *Gateway) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !serve.DecodeJSON(w, r, &req) {
		return
	}
	if req.Hierarchy == "" {
		serve.WriteError(w, http.StatusBadRequest, "missing hierarchy; POST /v1/hierarchy first")
		return
	}
	fp := hierarchyFP(req.Hierarchy)
	order := g.routeHierarchy(fp)
	creq := client.ReleaseRequest{
		Hierarchy: req.Hierarchy,
		Algorithm: req.Algorithm,
		Epsilon:   req.Epsilon,
		K:         req.K,
		Methods:   req.Methods,
		Merge:     req.Merge,
		Seed:      req.Seed,
		Workers:   req.Workers,
		Version:   req.Version,
	}

	if req.Async {
		var job client.Job
		err := g.forward(order, func(c *client.Client, u string) error {
			j, err := c.ReleaseAsync(r.Context(), creq)
			if err != nil {
				return err
			}
			job = j
			g.learnJob(j.Job, u)
			return nil
		})
		g.recordTenant(fp, err)
		if err != nil {
			writeClientError(w, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+job.Job)
		serve.WriteJSON(w, http.StatusAccepted, job)
		return
	}

	var rel client.Release
	err := g.forward(order, func(c *client.Client, u string) error {
		res, err := c.Release(r.Context(), creq)
		if err != nil {
			return err
		}
		rel = res
		return nil
	})
	g.recordTenant(fp, err)
	if err != nil {
		writeClientError(w, err)
		return
	}
	g.learnRelease(rel.Release, fp)
	serve.WriteJSON(w, http.StatusOK, rel)
}

// handleGetRelease proxies an artifact from the first replica that
// holds it, verbatim — the backend already renders both formats, so
// decoding and re-encoding here would only burn gateway CPU and
// memory. The body is buffered (not streamed) so a mid-transfer
// backend death can still fail over to the next replica cleanly.
func (g *Gateway) handleGetRelease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	if format != "" && format != "sparse" && format != "dense" {
		serve.WriteError(w, http.StatusBadRequest, "unknown artifact format %q (want sparse|dense)", format)
		return
	}
	order, err := g.orderForRelease(id)
	if err != nil {
		writeClientError(w, err)
		return
	}
	var body []byte
	err = g.forward(order, func(c *client.Client, u string) error {
		b, err := c.DownloadReleaseBytes(r.Context(), id, format)
		if err != nil {
			return err
		}
		body = b
		return nil
	})
	if err != nil {
		writeClientError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// handleGetJob polls the backend that runs the job when known, every
// live backend otherwise (a restarted gateway forgets the hint).
func (g *Gateway) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g.mu.Lock()
	owner, ok := g.jobOwner[id]
	g.mu.Unlock()
	var order []string
	if ok {
		order = []string{owner}
	} else if order = g.cluster.Live(); len(order) == 0 {
		writeClientError(w, cluster.ErrNoBackends)
		return
	}
	var job client.Job
	err := g.forward(order, func(c *client.Client, u string) error {
		j, err := c.Job(r.Context(), id)
		if err != nil {
			return err
		}
		job = j
		return nil
	})
	if err != nil {
		writeClientError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, job)
}

// handleQuery forwards a node query down the owning release's replica
// order.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	node := r.PathValue("node")
	q := r.URL.Query()
	release := q.Get("release")
	if release == "" {
		serve.WriteError(w, http.StatusBadRequest, "missing release query parameter")
		return
	}
	quantiles, kth, topCode, ok := serve.ParseQueryParams(w, q)
	if !ok {
		return
	}
	params := client.QueryParams{Quantiles: quantiles, KthLargest: kth, TopCode: topCode}
	order, err := g.orderForRelease(release)
	if err != nil {
		writeClientError(w, err)
		return
	}
	var report client.NodeReport
	err = g.forward(order, func(c *client.Client, u string) error {
		rep, err := c.Query(r.Context(), release, node, params)
		if err != nil {
			return err
		}
		report = rep
		return nil
	})
	if err != nil {
		writeClientError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, report)
}

// batchQueryRequest mirrors the backend batch body.
type batchQueryRequest struct {
	Release string             `json:"release"`
	Queries []client.NodeQuery `json:"queries"`
}

// batchQueryResponse mirrors the backend batch response.
type batchQueryResponse struct {
	Release string              `json:"release"`
	Results []client.NodeResult `json:"results"`
}

// handleBatchQuery forwards the whole batch down the failover order of
// the first release it reads — the default release, else the first one
// an entry names. Every backend reads every release from the shared
// store, so one backend answers even a batch spanning releases owned by
// different hierarchies, in one engine pass; the backend also enforces
// the batch-size bound and answers per-query errors.
func (g *Gateway) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	var req batchQueryRequest
	if !serve.DecodeJSON(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		serve.WriteError(w, http.StatusBadRequest, "no queries in batch")
		return
	}
	order, err := g.orderForRelease(firstRelease(req))
	if err != nil {
		writeClientError(w, err)
		return
	}
	var results []client.NodeResult
	err = g.forward(order, func(c *client.Client, u string) error {
		out, err := c.BatchQuery(r.Context(), req.Release, req.Queries)
		if err != nil {
			return err
		}
		results = out
		return nil
	})
	if err != nil {
		writeClientError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, batchQueryResponse{Release: req.Release, Results: results})
}

// firstRelease names the release a batch routes by: the default
// release, else the first one any entry lists ("" when none does,
// which routes to any live backend; it answers the batch's errors).
func firstRelease(req batchQueryRequest) string {
	if req.Release != "" {
		return req.Release
	}
	for _, q := range req.Queries {
		for _, id := range q.Releases {
			if id != "" {
				return id
			}
		}
	}
	return ""
}

// handleBudget reads the budget position from the hierarchy's primary
// (the authoritative spender), failing over in replica order.
func (g *Gateway) handleBudget(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	order := g.routeHierarchy(hierarchyFP(id))
	var budget client.Budget
	err := g.forward(order, func(c *client.Client, u string) error {
		b, err := c.Budget(r.Context(), id)
		if err != nil {
			return err
		}
		budget = b
		return nil
	})
	if err != nil {
		writeClientError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, budget)
}

// clusterResponse is the JSON shape of GET /v1/cluster.
type clusterResponse struct {
	Replication  int           `json:"replication"`
	VirtualNodes int           `json:"virtual_nodes"`
	Live         int           `json:"live"`
	Failovers    uint64        `json:"failovers"`
	Joins        uint64        `json:"joins"`
	Leaves       uint64        `json:"leaves"`
	Backends     []backendInfo `json:"backends"`
	// Tenants is the per-hierarchy release traffic seen by this gateway,
	// sorted by tenant id — the fleet-wide view of who is sending
	// compute and who is being throttled by backend QoS.
	Tenants []tenantInfo `json:"tenants,omitempty"`
	Route   []string     `json:"route,omitempty"`
}

// tenantInfo is one tenant's release traffic in GET /v1/cluster.
type tenantInfo struct {
	Tenant    string `json:"tenant"`
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	Throttled uint64 `json:"throttled"`
}

type backendInfo struct {
	URL                 string  `json:"url"`
	Healthy             bool    `json:"healthy"`
	Instance            string  `json:"instance,omitempty"`
	ConsecutiveFailures int     `json:"consecutive_failures"`
	Ejections           uint64  `json:"ejections"`
	LastProbe           string  `json:"last_probe,omitempty"`
	LastError           string  `json:"last_error,omitempty"`
	Requests            uint64  `json:"requests"`
	Errors              uint64  `json:"errors"`
	MeanLatencyMS       float64 `json:"mean_latency_ms"`
}

// handleCluster reports the topology: ring parameters, every backend's
// health and traffic, and — with ?key=h-<fp> — that key's current
// failover route, primary first.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	states := g.cluster.States()
	resp := clusterResponse{
		Replication:  g.cluster.Replication(),
		VirtualNodes: g.cluster.VirtualNodes(),
		Live:         len(g.cluster.Live()),
		Backends:     make([]backendInfo, len(states)),
	}
	g.mu.Lock()
	resp.Failovers = g.failovers
	resp.Joins, resp.Leaves = g.joins, g.leaves
	for i, st := range states {
		info := backendInfo{
			URL:                 st.URL,
			Healthy:             st.Healthy,
			Instance:            st.Instance,
			ConsecutiveFailures: st.ConsecutiveFailures,
			Ejections:           st.Ejections,
			LastError:           st.LastError,
		}
		if !st.LastProbe.IsZero() {
			info.LastProbe = st.LastProbe.UTC().Format(time.RFC3339Nano)
		}
		if bs := g.stats[st.URL]; bs != nil {
			info.Requests = bs.requests
			info.Errors = bs.errors
			if bs.requests > 0 {
				info.MeanLatencyMS = float64(bs.latency.Microseconds()) / 1000 / float64(bs.requests)
			}
		}
		resp.Backends[i] = info
	}
	for fp, tt := range g.tenants {
		resp.Tenants = append(resp.Tenants, tenantInfo{
			Tenant:    "h-" + fp,
			Requests:  tt.requests,
			Errors:    tt.errors,
			Throttled: tt.throttled,
		})
	}
	g.mu.Unlock()
	sort.Slice(resp.Tenants, func(i, j int) bool { return resp.Tenants[i].Tenant < resp.Tenants[j].Tenant })
	if key := r.URL.Query().Get("key"); key != "" {
		if route, err := g.cluster.Route(hierarchyFP(key)); err == nil {
			resp.Route = route
		}
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// nodeRequest is the JSON body of POST /v1/cluster/nodes.
type nodeRequest struct {
	URL string `json:"url"`
}

// nodeResponse answers both membership operations.
type nodeResponse struct {
	URL      string `json:"url"`
	Changed  bool   `json:"changed"`
	Backends int    `json:"backends"`
}

// handleAddNode joins a backend to the ring at runtime
// (POST /v1/cluster/nodes {"url": "http://host:port"}). The join is
// answered immediately and a probe runs in the background; the new
// node reads every release from the shared store, so there is nothing
// to copy to it.
func (g *Gateway) handleAddNode(w http.ResponseWriter, r *http.Request) {
	var req nodeRequest
	if !serve.DecodeJSON(w, r, &req) {
		return
	}
	u := strings.TrimSuffix(strings.TrimSpace(req.URL), "/")
	if u == "" {
		serve.WriteError(w, http.StatusBadRequest, "missing url")
		return
	}
	if !strings.Contains(u, "://") {
		serve.WriteError(w, http.StatusBadRequest, "backend %q needs a scheme (http://host:port)", u)
		return
	}
	joined, err := g.AddBackend(u)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if joined {
		go g.cluster.ProbeNow(context.Background())
	}
	serve.WriteJSON(w, http.StatusOK, nodeResponse{URL: u, Changed: joined, Backends: len(g.cluster.Backends())})
}

// handleRemoveNode drains a backend from the ring at runtime
// (DELETE /v1/cluster/nodes?url=http://host:port). Its keys move to
// the survivors, which already read its releases from the shared
// store.
func (g *Gateway) handleRemoveNode(w http.ResponseWriter, r *http.Request) {
	u := strings.TrimSuffix(strings.TrimSpace(r.URL.Query().Get("url")), "/")
	if u == "" {
		serve.WriteError(w, http.StatusBadRequest, "missing url query parameter")
		return
	}
	if err := g.RemoveBackend(u); err != nil {
		switch {
		case errors.Is(err, cluster.ErrUnknownBackend):
			serve.WriteError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, cluster.ErrLastBackend):
			serve.WriteError(w, http.StatusConflict, "%v", err)
		default:
			serve.WriteError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	serve.WriteJSON(w, http.StatusOK, nodeResponse{URL: u, Changed: true, Backends: len(g.cluster.Backends())})
}

// handleHealthz answers 200 while at least one backend is live — the
// gateway itself holds no data, so "up with zero backends" would be a
// lie to load balancers.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	live := len(g.cluster.Live())
	if live == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, "no live backends")
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"live":     live,
		"backends": len(g.cluster.Backends()),
	})
}

// handleMetrics exposes the gateway's routing counters in the
// Prometheus text format, per-backend series labeled by URL.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	states := g.cluster.States()
	g.mu.Lock()
	defer g.mu.Unlock()

	fmt.Fprintf(w, "# HELP hcoc_gateway_backends Configured backends.\nhcoc_gateway_backends %d\n", len(states))
	live := 0
	for _, st := range states {
		if st.Healthy {
			live++
		}
	}
	fmt.Fprintf(w, "# HELP hcoc_gateway_live_backends Backends currently healthy.\nhcoc_gateway_live_backends %d\n", live)
	fmt.Fprintf(w, "# HELP hcoc_gateway_failovers_total Requests retried past their first-choice backend.\nhcoc_gateway_failovers_total %d\n", g.failovers)
	fmt.Fprintf(w, "# HELP hcoc_gateway_fanout_uploads_total Hierarchy uploads fanned out to the ring owners.\nhcoc_gateway_fanout_uploads_total %d\n", g.fanouts)

	fmt.Fprintf(w, "# HELP hcoc_gateway_backend_requests_total Requests forwarded per backend.\n")
	for _, st := range states {
		if bs := g.stats[st.URL]; bs != nil {
			fmt.Fprintf(w, "hcoc_gateway_backend_requests_total{backend=%q} %d\n", st.URL, bs.requests)
		}
	}
	fmt.Fprintf(w, "# HELP hcoc_gateway_backend_errors_total Failed forwards per backend.\n")
	for _, st := range states {
		if bs := g.stats[st.URL]; bs != nil {
			fmt.Fprintf(w, "hcoc_gateway_backend_errors_total{backend=%q} %d\n", st.URL, bs.errors)
		}
	}
	fmt.Fprintf(w, "# HELP hcoc_gateway_backend_latency_seconds_total Cumulative forward latency per backend.\n")
	for _, st := range states {
		if bs := g.stats[st.URL]; bs != nil {
			fmt.Fprintf(w, "hcoc_gateway_backend_latency_seconds_total{backend=%q} %g\n", st.URL, bs.latency.Seconds())
		}
	}
	fmt.Fprintf(w, "# HELP hcoc_gateway_backend_healthy Backend health (1 = live, 0 = ejected).\n")
	for _, st := range states {
		v := 0
		if st.Healthy {
			v = 1
		}
		fmt.Fprintf(w, "hcoc_gateway_backend_healthy{backend=%q} %d\n", st.URL, v)
	}
	fmt.Fprintf(w, "# HELP hcoc_gateway_backend_ejections_total Healthy-to-ejected transitions per backend.\n")
	for _, st := range states {
		fmt.Fprintf(w, "hcoc_gateway_backend_ejections_total{backend=%q} %d\n", st.URL, st.Ejections)
	}

	tenantFPs := make([]string, 0, len(g.tenants))
	for fp := range g.tenants {
		tenantFPs = append(tenantFPs, fp)
	}
	sort.Strings(tenantFPs)
	fmt.Fprintf(w, "# HELP hcoc_gateway_tenant_requests_total Release requests per tenant (hierarchy).\n")
	for _, fp := range tenantFPs {
		fmt.Fprintf(w, "hcoc_gateway_tenant_requests_total{tenant=%q} %d\n", "h-"+fp, g.tenants[fp].requests)
	}
	fmt.Fprintf(w, "# HELP hcoc_gateway_tenant_errors_total Failed release requests per tenant.\n")
	for _, fp := range tenantFPs {
		fmt.Fprintf(w, "hcoc_gateway_tenant_errors_total{tenant=%q} %d\n", "h-"+fp, g.tenants[fp].errors)
	}
	fmt.Fprintf(w, "# HELP hcoc_gateway_tenant_throttled_total Release requests answered with a compute-queue 429 per tenant.\n")
	for _, fp := range tenantFPs {
		fmt.Fprintf(w, "hcoc_gateway_tenant_throttled_total{tenant=%q} %d\n", "h-"+fp, g.tenants[fp].throttled)
	}

	fmt.Fprintf(w, "# HELP hcoc_gateway_node_joins_total Backends added at runtime.\nhcoc_gateway_node_joins_total %d\n", g.joins)
	fmt.Fprintf(w, "# HELP hcoc_gateway_node_leaves_total Backends removed at runtime.\nhcoc_gateway_node_leaves_total %d\n", g.leaves)
}
