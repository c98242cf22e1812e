package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hcoc/client"
	"hcoc/internal/cluster"
	"hcoc/internal/serve"
)

// maxBodyBytes bounds request bodies, mirroring the backend bound.
const maxBodyBytes = 1 << 30

// maxLearned caps the learned release→hierarchy and job→backend maps.
// They are routing hints, not state: an evicted entry degrades a read
// to the scatter fallback, nothing more.
const maxLearned = 8192

// Options configures a Gateway.
type Options struct {
	// Backends is the fleet of hcoc-serve base URLs. Required.
	Backends []string
	// Replication, VirtualNodes, FailThreshold and ProbeInterval
	// configure the cluster (zeros select the cluster defaults).
	Replication   int
	VirtualNodes  int
	FailThreshold int
	ProbeInterval time.Duration
	// Probe overrides the health probe (tests).
	Probe cluster.ProbeFunc
	// ClientOptions configures the per-backend SDK clients. The default
	// is a single retry per backend: the gateway's own replica failover
	// is the real retry mechanism.
	ClientOptions []client.Option

	// RepairInterval is ignored: the backends share one store, and
	// nothing copies artifacts between them.
	//
	// Deprecated: nothing reads it; it remains so existing callers build.
	RepairInterval time.Duration
	// SharedStore is ignored: sharing one store is the only multi-node
	// mode.
	//
	// Deprecated: nothing reads it; it remains so existing callers build.
	SharedStore bool
}

// backendStats counts one backend's forwarded traffic, guarded by
// Gateway.mu.
type backendStats struct {
	requests uint64
	errors   uint64
	latency  time.Duration
}

// tenantTraffic counts one tenant's (hierarchy's) release traffic
// through the gateway, guarded by Gateway.mu. Throttled is the subset
// of errors that were compute-queue 429s — the signal that a tenant is
// being shaped by backend QoS, visible fleet-wide in one place.
type tenantTraffic struct {
	requests  uint64
	errors    uint64
	throttled uint64
}

// Gateway routes the /v1 surface across a cluster of backends that
// share one blob store, so any backend can read any release. Safe for
// concurrent use; Start/Stop bound the background health probing.
type Gateway struct {
	cluster *cluster.Cluster
	mux     *http.ServeMux
	copts   []client.Option

	mu           sync.Mutex
	clients      map[string]*client.Client // guarded: membership changes at runtime
	releaseOwner map[string]string         // release id -> hierarchy fingerprint
	jobOwner     map[string]string         // job id -> backend URL
	stats        map[string]*backendStats
	tenants      map[string]*tenantTraffic // hierarchy fingerprint -> release traffic
	failovers    uint64
	fanouts      uint64
	joins        uint64
	leaves       uint64
}

// New builds the routing tier over the configured backends. No probing
// starts until Start; all backends begin healthy.
func New(opts Options) (*Gateway, error) {
	cl, err := cluster.New(cluster.Options{
		Backends:      opts.Backends,
		Replication:   opts.Replication,
		VirtualNodes:  opts.VirtualNodes,
		FailThreshold: opts.FailThreshold,
		ProbeInterval: opts.ProbeInterval,
		Probe:         opts.Probe,
	})
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cluster:      cl,
		clients:      make(map[string]*client.Client),
		mux:          http.NewServeMux(),
		releaseOwner: make(map[string]string),
		jobOwner:     make(map[string]string),
		stats:        make(map[string]*backendStats),
		tenants:      make(map[string]*tenantTraffic),
	}
	g.copts = opts.ClientOptions
	if g.copts == nil {
		g.copts = []client.Option{client.WithMaxRetries(1)}
	}
	for _, u := range cl.Backends() {
		c, err := client.New(u, g.copts...)
		if err != nil {
			return nil, fmt.Errorf("gateway: backend %q: %w", u, err)
		}
		g.clients[u] = c
		g.stats[u] = &backendStats{}
	}
	for _, rt := range g.routeTable() {
		g.mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.handler)
	}
	return g, nil
}

// Start launches the background health-probe loop; Stop ends it.
func (g *Gateway) Start() { g.cluster.Start() }

// Stop ends the loop started by Start.
func (g *Gateway) Stop() { g.cluster.Stop() }

// client resolves a backend URL to its SDK client; nil after the
// backend left the cluster.
func (g *Gateway) client(u string) *client.Client {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.clients[u]
}

// AddBackend joins a backend at runtime: an SDK client is built for
// it and it takes its ring share immediately, serving every release
// from the shared store. Idempotent; the returned bool reports whether
// the membership actually changed.
func (g *Gateway) AddBackend(u string) (bool, error) {
	c, err := client.New(u, g.copts...)
	if err != nil {
		return false, fmt.Errorf("gateway: backend %q: %w", u, err)
	}
	joined, err := g.cluster.AddBackend(u)
	if err != nil {
		return false, err
	}
	if !joined {
		return false, nil
	}
	g.mu.Lock()
	g.clients[u] = c
	if g.stats[u] == nil {
		g.stats[u] = &backendStats{}
	}
	g.joins++
	g.mu.Unlock()
	return true, nil
}

// RemoveBackend drains a backend at runtime: it stops owning keys and
// receiving traffic. Its artifacts live in the shared store, so the
// surviving owners already read them.
func (g *Gateway) RemoveBackend(u string) error {
	if err := g.cluster.RemoveBackend(u); err != nil {
		return err
	}
	g.mu.Lock()
	delete(g.clients, u)
	delete(g.stats, u)
	// Job hints pointing at the departed backend are dead routes; drop
	// them so polls fall back to the live scatter.
	for id, owner := range g.jobOwner {
		if owner == u {
			delete(g.jobOwner, id)
		}
	}
	g.leaves++
	g.mu.Unlock()
	return nil
}

// Cluster exposes the routing state for introspection and tests.
func (g *Gateway) Cluster() *cluster.Cluster { return g.cluster }

// routeEntry pairs a route with its handler.
type routeEntry struct {
	serve.Route
	handler http.HandlerFunc
}

func (g *Gateway) routeTable() []routeEntry {
	return []routeEntry{
		{serve.Route{Method: "POST", Pattern: "/v1/hierarchy"}, g.handleHierarchy},
		{serve.Route{Method: "GET", Pattern: "/v1/hierarchy"}, g.handleListHierarchies},
		{serve.Route{Method: "POST", Pattern: "/v1/hierarchy/{id}/events"}, g.handleAppendEvents},
		{serve.Route{Method: "GET", Pattern: "/v1/hierarchy/{id}/versions"}, g.handleVersions},
		{serve.Route{Method: "POST", Pattern: "/v1/release"}, g.handleRelease},
		{serve.Route{Method: "GET", Pattern: "/v1/release"}, g.handleListReleases},
		{serve.Route{Method: "GET", Pattern: "/v1/release/{id}"}, g.handleGetRelease},
		{serve.Route{Method: "GET", Pattern: "/v1/jobs/{id}"}, g.handleGetJob},
		{serve.Route{Method: "POST", Pattern: "/v1/query/batch"}, g.handleBatchQuery},
		{serve.Route{Method: "GET", Pattern: "/v1/query/{node...}"}, g.handleQuery},
		{serve.Route{Method: "GET", Pattern: "/v1/budget/{id}"}, g.handleBudget},
		{serve.Route{Method: "GET", Pattern: "/v1/cluster"}, g.handleCluster},
		{serve.Route{Method: "POST", Pattern: "/v1/cluster/nodes"}, g.handleAddNode},
		{serve.Route{Method: "DELETE", Pattern: "/v1/cluster/nodes"}, g.handleRemoveNode},
		{serve.Route{Method: "GET", Pattern: "/healthz"}, g.handleHealthz},
		{serve.Route{Method: "GET", Pattern: "/metrics"}, g.handleMetrics},
	}
}

// Routes lists every registered endpoint, for the OpenAPI coverage
// test: the gateway surface is the backend surface plus /v1/cluster,
// minus the per-node /v1/tenants report.
func (g *Gateway) Routes() []serve.Route {
	table := g.routeTable()
	out := make([]serve.Route, len(table))
	for i, rt := range table {
		out[i] = rt.Route
	}
	return out
}

// ServeHTTP implements http.Handler under the shared transport
// conventions (bounded, gzip-aware in both directions).
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w, r, finish, ok := serve.WrapTransport(w, r, maxBodyBytes)
	if !ok {
		return
	}
	defer finish()
	g.mux.ServeHTTP(w, r)
}

// writeClientError translates an SDK error from a backend into the
// gateway's response: budget refusals, version conflicts and API
// errors pass through with their status, machine-readable code and
// body, a dead cluster is 503, and anything else (transport failures
// after exhausting every replica) is 502.
func writeClientError(w http.ResponseWriter, err error) {
	var be *client.BudgetError
	if errors.As(err, &be) {
		code := be.Code
		if code == "" {
			code = "budget"
		}
		serve.WriteJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":                     be.Message,
			"code":                      code,
			"hierarchy":                 be.Hierarchy,
			"requested_epsilon":         be.RequestedEpsilon,
			"remaining_epsilon":         be.RemainingEpsilon,
			"max_epsilon_per_hierarchy": be.MaxEpsilonPerHierarchy,
		})
		return
	}
	var vce *client.VersionConflictError
	if errors.As(err, &vce) {
		serve.WriteJSON(w, http.StatusConflict, map[string]any{
			"error":            vce.Message,
			"code":             "version_conflict",
			"hierarchy":        vce.Hierarchy,
			"head_version":     vce.HeadVersion,
			"head_fingerprint": vce.HeadFingerprint,
			"given":            vce.Given,
		})
		return
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		if ae.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(ae.RetryAfter.Seconds())))
		}
		code := ae.Code
		if code == "" {
			code = serve.ErrorCode(ae.StatusCode)
		}
		serve.WriteErrorCode(w, ae.StatusCode, code, "%s", ae.Message)
		return
	}
	if errors.Is(err, cluster.ErrNoBackends) {
		serve.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	serve.WriteError(w, http.StatusBadGateway, "no replica could serve the request: %v", err)
}

// record books one forwarded attempt into the backend's counters.
func (g *Gateway) record(url string, d time.Duration, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stats[url]
	if st == nil {
		return
	}
	st.requests++
	st.latency += d
	if err != nil {
		st.errors++
	}
}

// reportHealth feeds one attempt's outcome to the ejection tracker.
// Only signals that mean "this backend is broken" count against it:
// transport failures and 5xx other than backpressure. A 404 means a
// replica is missing data (try the next one) and 4xx are the caller's
// fault — neither ejects.
func (g *Gateway) reportHealth(url string, err error) {
	if err == nil {
		g.cluster.ReportSuccess(url)
		return
	}
	var be *client.BudgetError
	if errors.As(err, &be) {
		g.cluster.ReportSuccess(url) // an authoritative answer: the backend is fine
		return
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		if ae.StatusCode >= 500 && ae.StatusCode != http.StatusServiceUnavailable {
			g.cluster.ReportFailure(url, err)
		}
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return // the caller hung up; says nothing about the backend
	}
	g.cluster.ReportFailure(url, err)
}

// terminal reports errors that must not fail over to the next replica:
// the answer would be the same (or more wrong) anywhere else.
func terminal(err error) bool {
	var be *client.BudgetError
	if errors.As(err, &be) {
		return true
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		// 404 (a replica missing data) and 5xx/backpressure fall
		// through to the next replica; other 4xx are deterministic.
		return ae.StatusCode != http.StatusNotFound && ae.StatusCode < 500
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// forward runs op against each backend in order until one succeeds,
// feeding stats and health per attempt. The zero-length order and
// all-attempts-failed cases both return an error for writeClientError.
func (g *Gateway) forward(order []string, op func(c *client.Client, url string) error) error {
	var lastErr error
	for i, u := range order {
		c := g.client(u)
		if c == nil {
			continue
		}
		if i > 0 {
			g.mu.Lock()
			g.failovers++
			g.mu.Unlock()
		}
		start := time.Now()
		err := op(c, u)
		g.record(u, time.Since(start), err)
		g.reportHealth(u, err)
		if err == nil {
			return nil
		}
		lastErr = err
		if terminal(err) {
			return err
		}
	}
	if lastErr == nil {
		lastErr = cluster.ErrNoBackends
	}
	return lastErr
}

// recordTenant books one release request against its tenant
// (hierarchy fingerprint): every attempt counts, err != nil counts as
// an error, and a compute-queue 429 (an APIError carrying Retry-After)
// additionally counts as throttled. The map is bounded like the
// routing hints: an evicted tenant loses history, not correctness.
func (g *Gateway) recordTenant(fp string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	tt := g.tenants[fp]
	if tt == nil {
		if len(g.tenants) >= maxLearned {
			for k := range g.tenants {
				delete(g.tenants, k)
				break
			}
		}
		tt = &tenantTraffic{}
		g.tenants[fp] = tt
	}
	tt.requests++
	if err == nil {
		return
	}
	tt.errors++
	var ae *client.APIError
	if errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests && ae.RetryAfter > 0 {
		tt.throttled++
	}
}

// learnRelease remembers which hierarchy a release belongs to, so
// reads route straight to its owners instead of scattering.
func (g *Gateway) learnRelease(releaseID, fp string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.releaseOwner) >= maxLearned {
		for k := range g.releaseOwner {
			delete(g.releaseOwner, k)
			break
		}
	}
	g.releaseOwner[releaseID] = fp
}

// learnJob remembers which backend runs an async job — jobs are
// backend-local state, not replicated.
func (g *Gateway) learnJob(jobID, backendURL string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.jobOwner) >= maxLearned {
		for k := range g.jobOwner {
			delete(g.jobOwner, k)
			break
		}
	}
	g.jobOwner[jobID] = backendURL
}

// routeHierarchy resolves a hierarchy fingerprint to its failover
// order. When every backend is ejected it falls back to the raw ring
// owners instead of refusing: ejections can be stale (a transient
// gateway-side blip ejecting the whole fleet), and succeeding against
// an "ejected" backend is how the request path re-admits a healed
// cluster without waiting for a probe sweep. The empty slice (no
// owners at all) cannot happen on a validated cluster.
func (g *Gateway) routeHierarchy(fp string) []string {
	if order, err := g.cluster.Route(fp); err == nil {
		return order
	}
	return g.cluster.Owners(fp)
}

// orderForRelease resolves a release id to its failover order: the
// owning hierarchy's route when learned — extended with the remaining
// live backends, since every backend reads the shared store and a read
// should outlive all R owners — every live backend when the hint is
// forgotten (a gateway restart forgets the hints, not the data), and,
// with the whole fleet ejected, every configured backend as a last
// resort.
func (g *Gateway) orderForRelease(releaseID string) ([]string, error) {
	g.mu.Lock()
	fp, ok := g.releaseOwner[releaseID]
	g.mu.Unlock()
	if ok {
		order := g.routeHierarchy(fp)
		seen := make(map[string]bool, len(order))
		for _, u := range order {
			seen[u] = true
		}
		for _, u := range g.cluster.Live() {
			if !seen[u] {
				order = append(order, u)
			}
		}
		return order, nil
	}
	if live := g.cluster.Live(); len(live) > 0 {
		return live, nil
	}
	if all := g.cluster.Backends(); len(all) > 0 {
		return all, nil
	}
	return nil, cluster.ErrNoBackends
}

// hierarchyFP extracts the ring key from a hierarchy id ("h-<fp>" or a
// raw fingerprint).
func hierarchyFP(id string) string { return strings.TrimPrefix(id, "h-") }
