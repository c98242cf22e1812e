package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strings"
	"time"

	"hcoc/internal/cluster"
	"hcoc/internal/hierarchy"
	"hcoc/internal/httpx"
)

// handleHierarchy fingerprints the upload — the tree's content
// fingerprint is its ring key — and fans it out to all R ring owners
// in parallel, so replicas already hold the tree when a failover read
// or release arrives. One success answers (uploads are
// content-addressed and idempotent, so stragglers converge on retry).
// An upload the gateway cannot fingerprint goes to any one backend,
// which refuses it as it would directly.
func (g *Gateway) handleHierarchy(w http.ResponseWriter, r *http.Request) {
	body, ok := bufferBody(w, r)
	if !ok {
		return
	}
	fp, ok := uploadKey(body)
	if !ok {
		g.forward(w, r, g.anyOrder(), body, nil)
		return
	}
	g.fanOut(w, r, g.cluster.Owners(fp), body)
}

// uploadKey fingerprints the tree of an upload body, as its backend
// will; ok is false for a body no backend would accept, which
// hierarchy.CheckUpload decides before any tree is built.
func uploadKey(body []byte) (fp string, ok bool) {
	var up struct {
		Root   string            `json:"root"`
		Groups []hierarchy.Group `json:"groups"`
	}
	if json.Unmarshal(body, &up) != nil || hierarchy.CheckUpload(up.Groups) != nil {
		return "", false
	}
	if up.Root == "" {
		up.Root = "root"
	}
	tree, err := hierarchy.BuildTree(up.Root, up.Groups)
	if err != nil {
		return "", false
	}
	return hierarchy.FingerprintTree(tree), true
}

// handleAppendEvents fans an event append out to all R ring owners of
// the hierarchy in parallel, so every replica's event log advances to
// the same head. The caller's If-Match precondition crosses verbatim
// to each owner: a stale fingerprint conflicts identically everywhere.
func (g *Gateway) handleAppendEvents(w http.ResponseWriter, r *http.Request) {
	body, ok := bufferBody(w, r)
	if !ok {
		return
	}
	g.fanOut(w, r, g.cluster.Owners(hierarchyFP(r.PathValue("id"))), body)
}

// handleOwned forwards a read of one hierarchy's state — its version
// history or its budget position — to the hierarchy's primary, failing
// over down the replica order. The primary is the node that spends.
func (g *Gateway) handleOwned(w http.ResponseWriter, r *http.Request) {
	g.forward(w, r, g.routeHierarchy(hierarchyFP(r.PathValue("id"))), nil, nil)
}

// handleListHierarchies merges the hierarchy listings of every live
// backend, deduplicated by id (uploads fan out to R owners).
func (g *Gateway) handleListHierarchies(w http.ResponseWriter, r *http.Request) {
	g.scatter(w, r, func(e listEntry) string { return e.ID })
}

// handleListReleases merges the durable-artifact listings across the
// cluster, deduplicated by release id. Each backend gets the caller's
// query, so ?hierarchy= and ?version= filter as they do directly. A
// listing teaches the gateway no routes: an entry's hierarchy is the
// tree fingerprint of its version, which names the log only at version
// 1, so routes are learned from release answers alone.
func (g *Gateway) handleListReleases(w http.ResponseWriter, r *http.Request) {
	g.scatter(w, r, func(e listEntry) string { return e.Release })
}

// handleRelease routes a release to the hierarchy's primary, failing
// over down the replica order. The computing backend writes the
// artifact to the shared store, where every other backend reads the
// same bytes. The gateway reads the answer only for routing hints: the
// release id of a 2xx answer, and, for an async submission, the job id
// in the 202's Location (the job table is not shared, so polls go to
// the backend that runs the job). A body naming no hierarchy goes to
// any backend, which refuses it as it would directly.
func (g *Gateway) handleRelease(w http.ResponseWriter, r *http.Request) {
	body, ok := bufferBody(w, r)
	if !ok {
		return
	}
	var key struct {
		Hierarchy string `json:"hierarchy"`
	}
	_ = json.Unmarshal(body, &key) // a body that does not parse names no hierarchy
	fp := hierarchyFP(key.Hierarchy)
	if fp == "" {
		g.forward(w, r, g.anyOrder(), body, nil)
		return
	}
	status, hdr := g.forward(w, r, g.routeHierarchy(fp), body, func(u string, resp *http.Response) {
		switch {
		case resp.StatusCode == http.StatusAccepted:
			if id, ok := strings.CutPrefix(resp.Header.Get("Location"), "/v1/jobs/"); ok {
				g.learnJob(id, u)
			}
		case resp.StatusCode/100 == 2:
			var rel struct {
				Release string `json:"release"`
			}
			if peek(resp, &rel) == nil && rel.Release != "" {
				g.learnRelease(rel.Release, fp)
			}
		}
	})
	g.recordTenant(fp, status, hdr)
}

// handleGetRelease relays an artifact download from the first backend
// in the release's failover order that holds it. Range, If-None-Match
// and the other conditional headers cross verbatim, so a download
// through the gateway keeps the backend's ETag, 304, 206 and
// Content-Length.
func (g *Gateway) handleGetRelease(w http.ResponseWriter, r *http.Request) {
	g.forward(w, r, g.orderForRelease(r.PathValue("id")), nil, nil)
}

// handleGetJob polls the backend that runs the job when known, any
// backend otherwise (a restarted gateway forgets the hint).
func (g *Gateway) handleGetJob(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	owner, ok := g.jobOwner[r.PathValue("id")]
	g.mu.Unlock()
	order := []string{owner}
	if !ok {
		order = g.anyOrder()
	}
	g.forward(w, r, order, nil, nil)
}

// handleQuery forwards a node query down the owning release's failover
// order. A version-pinned query (?hierarchy=&version=, no release)
// resolves on a node holding the hierarchy's event log, so it goes to
// the hierarchy's owners.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var order []string
	if id, h := q.Get("release"), q.Get("hierarchy"); id == "" && h != "" {
		order = g.routeHierarchy(hierarchyFP(h))
	} else {
		order = g.orderForRelease(id)
	}
	g.forward(w, r, order, nil, nil)
}

// handleBatchQuery forwards the whole batch down the failover order of
// the first release it reads — the default release, else the first one
// an entry names. Every backend reads every release from the shared
// store, so one backend answers even a batch spanning releases owned by
// different hierarchies, in one engine pass; the backend also enforces
// the batch-size bound and answers per-query errors. A batch naming no
// release goes to any backend, which answers it as it would directly.
func (g *Gateway) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	body, ok := bufferBody(w, r)
	if !ok {
		return
	}
	g.forward(w, r, g.orderForRelease(firstRelease(body)), body, nil)
}

// firstRelease names the release a batch body routes by: the default
// release, else the first one any entry lists ("" when none does).
func firstRelease(body []byte) string {
	var key struct {
		Release string `json:"release"`
		Queries []struct {
			Releases []string `json:"releases"`
		} `json:"queries"`
	}
	_ = json.Unmarshal(body, &key) // a body that does not parse names no release
	if key.Release != "" {
		return key.Release
	}
	for _, q := range key.Queries {
		for _, id := range q.Releases {
			if id != "" {
				return id
			}
		}
	}
	return ""
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
	httpx.WriteJSON(w, http.StatusOK, resp)
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
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	u := strings.TrimSuffix(strings.TrimSpace(req.URL), "/")
	if u == "" {
		httpx.WriteError(w, http.StatusBadRequest, "missing url")
		return
	}
	if !strings.Contains(u, "://") {
		httpx.WriteError(w, http.StatusBadRequest, "backend %q needs a scheme (http://host:port)", u)
		return
	}
	joined, err := g.AddBackend(u)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if joined {
		go g.cluster.ProbeNow(context.Background())
	}
	httpx.WriteJSON(w, http.StatusOK, nodeResponse{URL: u, Changed: joined, Backends: len(g.cluster.Backends())})
}

// handleRemoveNode drains a backend from the ring at runtime
// (DELETE /v1/cluster/nodes?url=http://host:port). Its keys move to
// the survivors, which already read its releases from the shared
// store.
func (g *Gateway) handleRemoveNode(w http.ResponseWriter, r *http.Request) {
	u := strings.TrimSuffix(strings.TrimSpace(r.URL.Query().Get("url")), "/")
	if u == "" {
		httpx.WriteError(w, http.StatusBadRequest, "missing url query parameter")
		return
	}
	if err := g.RemoveBackend(u); err != nil {
		switch {
		case errors.Is(err, cluster.ErrUnknownBackend):
			httpx.WriteError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, cluster.ErrLastBackend):
			httpx.WriteError(w, http.StatusConflict, "%v", err)
		default:
			httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	httpx.WriteJSON(w, http.StatusOK, nodeResponse{URL: u, Changed: true, Backends: len(g.cluster.Backends())})
}

// handleHealthz answers 200 while at least one backend is live — the
// gateway itself holds no data, so "up with zero backends" would be a
// lie to load balancers.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	live := len(g.cluster.Live())
	if live == 0 {
		httpx.WriteError(w, http.StatusServiceUnavailable, "no live backends")
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"live":     live,
		"backends": len(g.cluster.Backends()),
	})
}

// handleMetrics exposes the gateway's routing counters in the
// Prometheus text format, per-backend series labeled by URL.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	states := g.cluster.States()
	g.mu.Lock()
	defer g.mu.Unlock()
	live := 0
	for _, st := range states {
		if st.Healthy {
			live++
		}
	}
	x := httpx.NewMetrics(w)
	x.Scalar("hcoc_gateway_backends", "Configured backends.", len(states))
	x.Scalar("hcoc_gateway_live_backends", "Backends currently healthy.", live)
	x.Scalar("hcoc_gateway_failovers_total", "Requests retried past their first-choice backend.", g.failovers)
	x.Scalar("hcoc_gateway_fanout_uploads_total", "Hierarchy uploads fanned out to the ring owners.", g.fanouts)

	for _, f := range []struct {
		name, help string
		value      func(*backendStats) any
	}{
		{"hcoc_gateway_backend_requests_total", "Requests forwarded per backend.", func(bs *backendStats) any { return bs.requests }},
		{"hcoc_gateway_backend_errors_total", "Failed forwards per backend.", func(bs *backendStats) any { return bs.errors }},
		{"hcoc_gateway_backend_latency_seconds_total", "Cumulative forward latency per backend.", func(bs *backendStats) any { return bs.latency.Seconds() }},
	} {
		x.Family(f.name, f.help)
		for _, st := range states {
			if bs := g.stats[st.URL]; bs != nil {
				x.Sample(f.name, f.value(bs), "backend", st.URL)
			}
		}
	}
	x.Family("hcoc_gateway_backend_healthy", "Backend health (1 = live, 0 = ejected).")
	for _, st := range states {
		v := 0
		if st.Healthy {
			v = 1
		}
		x.Sample("hcoc_gateway_backend_healthy", v, "backend", st.URL)
	}
	x.Family("hcoc_gateway_backend_ejections_total", "Healthy-to-ejected transitions per backend.")
	for _, st := range states {
		x.Sample("hcoc_gateway_backend_ejections_total", st.Ejections, "backend", st.URL)
	}

	tenantFPs := make([]string, 0, len(g.tenants))
	for fp := range g.tenants {
		tenantFPs = append(tenantFPs, fp)
	}
	sort.Strings(tenantFPs)
	for _, f := range []struct {
		name, help string
		value      func(*tenantTraffic) any
	}{
		{"hcoc_gateway_tenant_requests_total", "Release requests per tenant (hierarchy).", func(tt *tenantTraffic) any { return tt.requests }},
		{"hcoc_gateway_tenant_errors_total", "Failed release requests per tenant.", func(tt *tenantTraffic) any { return tt.errors }},
		{"hcoc_gateway_tenant_throttled_total", "Release requests answered with a compute-queue 429 per tenant.", func(tt *tenantTraffic) any { return tt.throttled }},
	} {
		x.Family(f.name, f.help)
		for _, fp := range tenantFPs {
			x.Sample(f.name, f.value(g.tenants[fp]), "tenant", "h-"+fp)
		}
	}

	x.Scalar("hcoc_gateway_node_joins_total", "Backends added at runtime.", g.joins)
	x.Scalar("hcoc_gateway_node_leaves_total", "Backends removed at runtime.", g.leaves)
}
