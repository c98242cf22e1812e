package gateway

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"hcoc/client"
	"hcoc/internal/cluster"
	"hcoc/internal/httpx"
)

// maxLearned caps the learned release→hierarchy and job→backend maps.
// They are routing hints, not state: an evicted entry degrades a read
// to any live backend, nothing more.
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
	// ClientOptions configures the per-backend SDK clients the gateway
	// forwards through. Every forward is one attempt through
	// client.Client.Do, so only the HTTP client (client.WithHTTPClient)
	// and the User-Agent of requests that carry none reach the wire.
	// The retry and backoff settings govern no gateway call: a 503 or a
	// dead backend fails over to the next replica at once, and replica
	// failover is the gateway's only retry.
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
// of errors that were compute-queue 429s (the ones carrying
// Retry-After) — the signal that a tenant is being shaped by backend
// QoS, visible fleet-wide in one place.
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
	maxBody int64

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
		maxBody:      httpx.MaxBodyBytes,
		releaseOwner: make(map[string]string),
		jobOwner:     make(map[string]string),
		stats:        make(map[string]*backendStats),
		tenants:      make(map[string]*tenantTraffic),
	}
	g.copts = opts.ClientOptions
	for _, u := range cl.Backends() {
		c, err := client.New(u, g.copts...)
		if err != nil {
			return nil, fmt.Errorf("gateway: backend %q: %w", u, err)
		}
		g.clients[u] = c
		g.stats[u] = &backendStats{}
	}
	g.mux = httpx.NewMux(g.Routes())
	return g, nil
}

// Start launches the background health-probe loop; Stop ends it.
func (g *Gateway) Start() { g.cluster.Start() }

// Stop ends the loop started by Start.
func (g *Gateway) Stop() { g.cluster.Stop() }

// client resolves a backend URL to the SDK client the gateway forwards
// through; nil after the backend left the cluster.
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
	// them so polls fail over across every live backend (anyOrder).
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

// Routes lists every endpoint with its handler, for registration and
// for the OpenAPI coverage test: the gateway surface is the backend
// surface plus /v1/cluster, minus the per-node /v1/tenants report. The
// /v1 data routes relay backend answers verbatim; the routes wrapped
// in compressed are the ones whose bodies the gateway writes itself.
func (g *Gateway) Routes() []httpx.Route {
	return []httpx.Route{
		{Method: "POST", Pattern: "/v1/hierarchy", Handler: g.handleHierarchy},
		{Method: "GET", Pattern: "/v1/hierarchy", Handler: g.handleListHierarchies},
		{Method: "POST", Pattern: "/v1/hierarchy/{id}/events", Handler: g.handleAppendEvents},
		{Method: "GET", Pattern: "/v1/hierarchy/{id}/versions", Handler: g.handleOwned},
		{Method: "POST", Pattern: "/v1/release", Handler: g.handleRelease},
		{Method: "GET", Pattern: "/v1/release", Handler: g.handleListReleases},
		{Method: "GET", Pattern: "/v1/release/{id}", Handler: g.handleGetRelease},
		{Method: "GET", Pattern: "/v1/jobs/{id}", Handler: g.handleGetJob},
		{Method: "POST", Pattern: "/v1/query/batch", Handler: g.handleBatchQuery},
		{Method: "GET", Pattern: "/v1/query/{node...}", Handler: g.handleQuery},
		{Method: "GET", Pattern: "/v1/budget/{id}", Handler: g.handleOwned},
		{Method: "GET", Pattern: "/v1/cluster", Handler: compressed(g.handleCluster)},
		{Method: "POST", Pattern: "/v1/cluster/nodes", Handler: compressed(g.handleAddNode)},
		{Method: "DELETE", Pattern: "/v1/cluster/nodes", Handler: compressed(g.handleRemoveNode)},
		{Method: "GET", Pattern: "/healthz", Handler: compressed(g.handleHealthz)},
		{Method: "GET", Pattern: "/metrics", Handler: compressed(g.handleMetrics)},
	}
}

// ServeHTTP implements http.Handler under the request side of the
// shared transport conventions (httpx.WrapRequest). Responses are not
// compressed here: a forwarded answer crosses in its backend's encoding.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r, release, ok := httpx.WrapRequest(w, r, g.maxBody)
	if !ok {
		return
	}
	defer release()
	g.mux.ServeHTTP(w, r)
}

// compressed gives a route whose body the gateway writes itself the
// response side of the transport conventions.
func compressed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w, finish := httpx.CompressResponse(w, r)
		defer finish()
		h(w, r)
	}
}

// recordTenant books one release request against its tenant
// (hierarchy fingerprint) from the status the gateway relayed (0 when
// no backend answered): every request counts, anything but a 2xx
// counts as an error, and a compute-queue 429 (one carrying
// Retry-After) additionally counts as throttled. The map is bounded
// like the routing hints: an evicted tenant loses history, not
// correctness.
func (g *Gateway) recordTenant(fp string, status int, hdr http.Header) {
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
	if status/100 == 2 {
		return
	}
	tt.errors++
	if status == http.StatusTooManyRequests && hdr.Get("Retry-After") != "" {
		tt.throttled++
	}
}

// learnRelease remembers which hierarchy a release answer named, so
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
// should outlive all R owners — and anyOrder when the hint is
// forgotten (a gateway restart forgets the hints, not the data).
func (g *Gateway) orderForRelease(releaseID string) []string {
	g.mu.Lock()
	fp, ok := g.releaseOwner[releaseID]
	g.mu.Unlock()
	if !ok {
		return g.anyOrder()
	}
	order := g.routeHierarchy(fp)
	for _, u := range g.cluster.Live() {
		if !slices.Contains(order, u) {
			order = append(order, u)
		}
	}
	return order
}

// anyOrder is the failover order of a request any backend can answer:
// every live backend, or, with the whole fleet ejected, every
// configured backend as a last resort.
func (g *Gateway) anyOrder() []string {
	if live := g.cluster.Live(); len(live) > 0 {
		return live
	}
	return g.cluster.Backends()
}

// hierarchyFP extracts the ring key from a hierarchy id ("h-<fp>" or a
// raw fingerprint).
func hierarchyFP(id string) string { return strings.TrimPrefix(id, "h-") }
