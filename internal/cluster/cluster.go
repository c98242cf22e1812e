package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNoBackends reports that no live backend exists to serve a key:
// every configured backend is currently ejected. It is the typed
// all-backends-down signal routers translate into a 503.
var ErrNoBackends = errors.New("cluster: no live backends")

// ErrUnknownBackend reports a membership operation naming a backend
// that is not part of the cluster.
var ErrUnknownBackend = errors.New("cluster: unknown backend")

// ErrLastBackend reports a refused removal: a cluster must keep at
// least one backend, or every key would have no owner.
var ErrLastBackend = errors.New("cluster: refusing to remove the last backend")

// ProbeFunc checks one backend's health and returns its self-reported
// instance identity (the engine id from /healthz). Injectable so tests
// control health without real sockets.
type ProbeFunc func(ctx context.Context, baseURL string) (instance string, err error)

// Defaults for Options fields left zero.
const (
	// DefaultReplication is how many backends own each hierarchy.
	DefaultReplication = 2
	// DefaultFailThreshold is the consecutive-failure count (probe and
	// request failures combined) at which a backend is ejected.
	DefaultFailThreshold = 3
	// DefaultProbeInterval is the health-probe period.
	DefaultProbeInterval = 2 * time.Second
	// probeTimeout bounds one health probe; a backend that cannot
	// answer /healthz in this window counts as failed.
	probeTimeout = 2 * time.Second
)

// Options configures a Cluster.
type Options struct {
	// Backends is the static membership: base URLs of the hcoc-serve
	// nodes. Required, deduplicated, order-insensitive.
	Backends []string
	// Replication is the number of backends owning each key (R);
	// 0 selects DefaultReplication. Clamped to the backend count.
	Replication int
	// VirtualNodes is the ring points per backend (0 selects
	// DefaultVirtualNodes).
	VirtualNodes int
	// FailThreshold is the consecutive-failure count that ejects a
	// backend (0 selects DefaultFailThreshold).
	FailThreshold int
	// ProbeInterval is the health-probe period (0 selects
	// DefaultProbeInterval).
	ProbeInterval time.Duration
	// Probe overrides the HTTP /healthz probe (tests).
	Probe ProbeFunc
}

// backend is one node's mutable health state, guarded by Cluster.mu.
type backend struct {
	url       string
	healthy   bool
	instance  string // engine id from the last successful probe
	failures  int    // consecutive failures since the last success
	ejections uint64
	lastProbe time.Time
	lastErr   string
}

// BackendStatus is a point-in-time snapshot of one backend for
// introspection (/v1/cluster).
type BackendStatus struct {
	// URL is the backend's base URL.
	URL string
	// Healthy is false while the backend is ejected.
	Healthy bool
	// Instance is the backend engine's self-reported identity, when a
	// probe has seen one.
	Instance string
	// ConsecutiveFailures counts probe/request failures since the last
	// success.
	ConsecutiveFailures int
	// Ejections counts healthy→ejected transitions over the cluster's
	// lifetime.
	Ejections uint64
	// LastProbe timestamps the most recent health probe (zero before
	// the first).
	LastProbe time.Time
	// LastError is the most recent failure message, cleared on success.
	LastError string
}

// Cluster combines ring ownership with per-backend health. Routing
// reads are lock-cheap; the probe loop and request-path reports feed
// the same failure counters, so a dead backend is ejected by whichever
// signal notices first and re-admitted by the first successful probe
// (or forwarded request).
type Cluster struct {
	ring   *Ring
	repl   int // configured R; the effective factor clamps to membership
	thresh int
	period time.Duration
	probe  ProbeFunc

	mu       sync.RWMutex
	backends map[string]*backend

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New validates the membership and builds the ring. All backends start
// healthy (optimistic admission); the first probe sweep corrects that
// within one interval.
func New(opts Options) (*Cluster, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	c := &Cluster{
		ring:     NewRing(opts.VirtualNodes),
		repl:     opts.Replication,
		thresh:   opts.FailThreshold,
		period:   opts.ProbeInterval,
		probe:    opts.Probe,
		backends: make(map[string]*backend),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if c.repl <= 0 {
		c.repl = DefaultReplication
	}
	if c.thresh <= 0 {
		c.thresh = DefaultFailThreshold
	}
	if c.period <= 0 {
		c.period = DefaultProbeInterval
	}
	if c.probe == nil {
		c.probe = httpProbe
	}
	for _, u := range opts.Backends {
		if u == "" {
			return nil, fmt.Errorf("cluster: empty backend URL")
		}
		if _, dup := c.backends[u]; dup {
			continue
		}
		c.backends[u] = &backend{url: u, healthy: true}
		c.ring.Add(u)
	}
	return c, nil
}

// AddBackend joins a backend to the ring at runtime. The node starts
// healthy (the next probe sweep or failed forward corrects that) and
// immediately owns its ring share — at most ~1/(N+1) of the keyspace
// moves, the same bound as construction-time membership. Adding a
// present backend is a no-op reporting joined=false.
func (c *Cluster) AddBackend(url string) (joined bool, err error) {
	if url == "" {
		return false, fmt.Errorf("cluster: empty backend URL")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.backends[url]; ok {
		return false, nil
	}
	c.backends[url] = &backend{url: url, healthy: true}
	c.ring.Add(url)
	return true, nil
}

// RemoveBackend drains a backend from the ring at runtime: it stops
// owning keys and stops being probed or routed to. Its releases live
// in the store the fleet shares, so the surviving owners read them
// unchanged. Removing the last backend is refused (ErrLastBackend);
// removing an unknown one is ErrUnknownBackend.
func (c *Cluster) RemoveBackend(url string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.backends[url]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBackend, url)
	}
	if len(c.backends) == 1 {
		return fmt.Errorf("%w (%q)", ErrLastBackend, url)
	}
	delete(c.backends, url)
	c.ring.Remove(url)
	return nil
}

// httpProbe is the default ProbeFunc: GET {base}/healthz with a short
// timeout, decoding the daemon's instance identity.
func httpProbe(ctx context.Context, baseURL string) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	var body struct {
		Status   string `json:"status"`
		Instance string `json:"instance"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", fmt.Errorf("decoding healthz: %w", err)
	}
	if body.Status != "ok" {
		return "", fmt.Errorf("healthz status %q", body.Status)
	}
	return body.Instance, nil
}

// Start launches the background probe loop; Stop ends it. Starting is
// optional — a cluster driven purely by request-path reports (tests)
// works without it — and repeated Starts are no-ops.
func (c *Cluster) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(c.period)
		defer ticker.Stop()
		ctx := context.Background()
		c.ProbeNow(ctx)
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
				c.ProbeNow(ctx)
			}
		}
	}()
}

// Stop ends the probe loop and waits for it to exit. Safe to call
// more than once, and a no-op when Start was never called.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.started.Load() {
		<-c.done
	}
}

// ProbeNow sweeps every backend once, synchronously (the probes
// themselves run in parallel). Exposed so boot and tests can force a
// sweep instead of waiting an interval.
func (c *Cluster) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, u := range c.Backends() {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			instance, err := c.probe(ctx, u)
			now := time.Now()
			if err != nil {
				c.report(u, err, now)
				return
			}
			c.mu.Lock()
			if b := c.backends[u]; b != nil {
				b.instance = instance
				b.lastProbe = now
			}
			c.mu.Unlock()
			c.ReportSuccess(u)
		}(u)
	}
	wg.Wait()
}

// ReportSuccess records a successful probe or forwarded request:
// failures reset and an ejected backend is re-admitted.
func (c *Cluster) ReportSuccess(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.backends[url]
	if b == nil {
		return
	}
	b.failures = 0
	b.lastErr = ""
	b.healthy = true
}

// ReportFailure records a failed probe or forwarded request; at the
// failure threshold the backend is ejected (skipped by routing until
// something succeeds against it again).
func (c *Cluster) ReportFailure(url string, err error) {
	c.report(url, err, time.Time{})
}

func (c *Cluster) report(url string, err error, probedAt time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.backends[url]
	if b == nil {
		return
	}
	b.failures++
	if err != nil {
		b.lastErr = err.Error()
	}
	if !probedAt.IsZero() {
		b.lastProbe = probedAt
	}
	if b.healthy && b.failures >= c.thresh {
		b.healthy = false
		b.ejections++
	}
}

// Replication is the effective replication factor R: the configured
// value, clamped to the current membership. It follows runtime
// join/leave — a 2-node cluster configured for R=3 reports 2 until a
// third node joins.
func (c *Cluster) Replication() int {
	c.mu.RLock()
	n := len(c.backends)
	c.mu.RUnlock()
	if c.repl > n {
		return n
	}
	return c.repl
}

// VirtualNodes is the ring's per-backend point count.
func (c *Cluster) VirtualNodes() int { return c.ring.vnodes }

// Backends lists every configured backend URL, sorted.
func (c *Cluster) Backends() []string { return c.ring.Nodes() }

// Live lists the currently healthy backends, sorted; the deterministic
// scatter order for cluster-wide reads.
func (c *Cluster) Live() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.backends))
	for u, b := range c.backends {
		if b.healthy {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

// Owners returns the R ring owners of key in primary→replica order,
// ignoring health. This is the write fan-out set: an upload targets
// every owner so the data is already in place when a failover read
// arrives.
func (c *Cluster) Owners(key string) []string {
	return c.ring.Replicas(key, c.repl)
}

// Route returns the failover order for key: the R owners with healthy
// backends first (ring order preserved within each class) and ejected
// ones kept at the tail as a last resort — an ejection may be stale,
// and succeeding against an ejected backend is how the request path
// re-admits it without waiting for a probe. When every configured
// backend is down the typed ErrNoBackends is returned instead.
func (c *Cluster) Route(key string) ([]string, error) {
	owners := c.ring.Replicas(key, c.repl)
	if len(owners) == 0 {
		return nil, ErrNoBackends
	}
	c.mu.RLock()
	anyLive := false
	for _, b := range c.backends {
		if b.healthy {
			anyLive = true
			break
		}
	}
	if !anyLive {
		c.mu.RUnlock()
		return nil, ErrNoBackends
	}
	ordered := make([]string, 0, len(owners))
	for _, u := range owners {
		if b := c.backends[u]; b != nil && b.healthy {
			ordered = append(ordered, u)
		}
	}
	for _, u := range owners {
		if b := c.backends[u]; b == nil || !b.healthy {
			ordered = append(ordered, u)
		}
	}
	c.mu.RUnlock()
	return ordered, nil
}

// States snapshots every backend for introspection, sorted by URL.
func (c *Cluster) States() []BackendStatus {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]BackendStatus, 0, len(c.backends))
	for _, b := range c.backends {
		out = append(out, BackendStatus{
			URL:                 b.url,
			Healthy:             b.healthy,
			Instance:            b.instance,
			ConsecutiveFailures: b.failures,
			Ejections:           b.ejections,
			LastProbe:           b.lastProbe,
			LastError:           b.lastErr,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
