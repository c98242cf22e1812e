package gateway

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/serve"
)

// backendFixture is one in-process hcoc-serve node.
type backendFixture struct {
	ts  *httptest.Server
	eng *engine.Engine
	c   *client.Client
}

func newBackend(t testing.TB, opts engine.Options) *backendFixture {
	t.Helper()
	eng := engine.New(opts)
	srv, err := serve.NewServer(eng, opts.Store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	return &backendFixture{ts: ts, eng: eng, c: c}
}

// newGateway wires a gateway over the fixtures, with fast-fail client
// settings and no background probing (tests drive health explicitly
// through the request path or ProbeNow).
func newGateway(t testing.TB, repl, thresh int, backends ...*backendFixture) (*Gateway, *client.Client, string) {
	t.Helper()
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.ts.URL
	}
	gw, err := New(Options{
		Backends:      urls,
		Replication:   repl,
		FailThreshold: thresh,
		ClientOptions: []client.Option{client.WithMaxRetries(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	return gw, c, ts.URL
}

func testGroups() []hcoc.Group {
	var groups []hcoc.Group
	for i := 0; i < 40; i++ {
		groups = append(groups, hcoc.Group{Path: []string{"CA"}, Size: int64(i%7 + 1)})
		groups = append(groups, hcoc.Group{Path: []string{"WA"}, Size: int64(i%4 + 1)})
	}
	return groups
}

// byURL maps a backend URL back to its fixture.
func byURL(t testing.TB, backends []*backendFixture, url string) *backendFixture {
	t.Helper()
	for _, b := range backends {
		if b.ts.URL == url {
			return b
		}
	}
	t.Fatalf("no backend fixture for %q", url)
	return nil
}

// TestGatewayClusterFailover is the cluster tier end to end, in
// process: an upload fans out to R replicas, a release computed on the
// primary lands in the shared store, the primary is killed, and the
// same release and its queries keep being served — bit-identically —
// from a replica, while /v1/cluster reports the ejection.
func TestGatewayClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration skipped in -short mode")
	}
	ctx := context.Background()
	stub := newStub(t)
	backends := []*backendFixture{
		newSharedBackend(t, stub),
		newSharedBackend(t, stub),
		newSharedBackend(t, stub),
	}
	gw, c, _ := newGateway(t, 2, 1, backends...)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}

	// The upload fanned out to exactly R=2 ring owners.
	owners := gw.Cluster().Owners(strings.TrimPrefix(h.ID, "h-"))
	if len(owners) != 2 {
		t.Fatalf("owners = %v", owners)
	}
	holding := 0
	for _, b := range backends {
		hs, err := b.c.Hierarchies(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(hs) == 1 && hs[0].ID == h.ID {
			holding++
		}
	}
	if holding != 2 {
		t.Fatalf("%d backends hold the hierarchy, want 2", holding)
	}

	rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rel.CacheHit || rel.Deduped {
		t.Fatalf("first release was not a fresh computation: %+v", rel)
	}

	// Both owners serve the artifact, bit-identically: the replica
	// reads the primary's write from the shared store.
	primary, replica := byURL(t, backends, owners[0]), byURL(t, backends, owners[1])
	fromPrimary, epsP, err := primary.c.DownloadRelease(ctx, rel.Release)
	if err != nil {
		t.Fatalf("primary lost its own artifact: %v", err)
	}
	fromReplica, epsR, err := replica.c.DownloadRelease(ctx, rel.Release)
	if err != nil {
		t.Fatalf("replica cannot read the artifact: %v", err)
	}
	if epsP != epsR || len(fromPrimary) != len(fromReplica) {
		t.Fatalf("replica artifact differs: eps %g/%g, nodes %d/%d", epsP, epsR, len(fromPrimary), len(fromReplica))
	}
	for path, hist := range fromPrimary {
		if !hist.Equal(fromReplica[path]) {
			t.Fatalf("replica histogram differs at %s", path)
		}
	}

	before, err := c.Query(ctx, rel.Release, "US/CA", client.QueryParams{Quantiles: []float64{0.5, 0.9}})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the primary outright: connections die mid-flight, the
	// listener closes — the in-process kill -9.
	primary.ts.Close()

	after, err := c.Query(ctx, rel.Release, "US/CA", client.QueryParams{Quantiles: []float64{0.5, 0.9}})
	if err != nil {
		t.Fatalf("query after killing the primary: %v", err)
	}
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("failover answer differs:\nbefore %+v\nafter  %+v", before, after)
	}

	// The same release request is still served — from the replica's
	// cache or the shared store, not a recomputation (a recompute would
	// draw fresh noise and break the bit-identical guarantee above).
	again, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatalf("release after killing the primary: %v", err)
	}
	if again.Release != rel.Release || (!again.CacheHit && !again.StoreHit) {
		t.Fatalf("post-failover release = %+v, want a cache or store hit on %s", again, rel.Release)
	}
	if m := replica.eng.Metrics(); m.Releases != 0 || m.EpsilonSpentLocal != 0 {
		t.Fatalf("replica computed %d releases and spent %g epsilon, want none", m.Releases, m.EpsilonSpentLocal)
	}

	// Topology reflects the ejection (FailThreshold 1: the failed
	// forward above ejected it).
	states := gw.Cluster().States()
	var dead *int
	for i, st := range states {
		if st.URL == owners[0] {
			dead = &i
			break
		}
	}
	if dead == nil {
		t.Fatalf("primary %q missing from states %+v", owners[0], states)
	}
	if st := states[*dead]; st.Healthy || st.Ejections == 0 {
		t.Fatalf("primary not ejected after failover: %+v", st)
	}

	// Batch queries keep working through the replica too.
	results, err := c.BatchQuery(ctx, rel.Release, []client.NodeQuery{
		{Node: "US/CA", Quantiles: []float64{0.5}},
		{Node: "US/WA", Quantiles: []float64{0.5}},
	})
	if err != nil || len(results) != 2 || results[0].Error != "" || results[1].Error != "" {
		t.Fatalf("batch after failover: %v, %+v", err, results)
	}

	// Kill everything: the typed all-backends-down path surfaces as
	// 503s and a failing healthz. A probe sweep notices the corpses
	// that the request path never touched.
	for _, b := range backends {
		b.ts.Close()
	}
	gw.Cluster().ProbeNow(ctx)
	if err := c.Healthz(ctx); err == nil {
		t.Fatal("gateway healthz still ok with every backend dead")
	}
	var ae *client.APIError
	_, err = c.Query(ctx, rel.Release, "US/CA", client.QueryParams{})
	if !errors.As(err, &ae) || (ae.StatusCode != http.StatusServiceUnavailable && ae.StatusCode != http.StatusBadGateway) {
		t.Fatalf("all-down query error = %v, want 502/503", err)
	}
}

// TestGatewayScatterListings: with R=1 distinct hierarchies shard to
// distinct backends; the gateway merges hierarchy and durable-release
// listings across the fleet and routes queries by the learned
// ownership.
func TestGatewayScatterListings(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration skipped in -short mode")
	}
	ctx := context.Background()
	backends := []*backendFixture{
		newBackend(t, engine.Options{}),
		newBackend(t, engine.Options{}),
		newBackend(t, engine.Options{}),
	}
	_, c, _ := newGateway(t, 1, 2, backends...)

	// Upload several distinct hierarchies; with R=1 and consistent
	// hashing they spread across backends.
	var ids []string
	roots := map[string]string{}
	for i := 0; i < 6; i++ {
		groups := []hcoc.Group{
			{Path: []string{"A"}, Size: int64(i + 1)},
			{Path: []string{"B"}, Size: int64(2*i + 3)},
			{Path: []string{"B"}, Size: 1},
		}
		root := fmt.Sprintf("root%d", i)
		h, err := c.UploadHierarchy(ctx, root, groups)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, h.ID)
		roots[h.ID] = root
	}
	merged, err := c.Hierarchies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(ids) {
		t.Fatalf("merged listing has %d hierarchies, want %d", len(merged), len(ids))
	}

	// Each hierarchy lives on exactly one backend (R=1, deduped merge).
	total := 0
	spread := 0
	for _, b := range backends {
		hs, err := b.c.Hierarchies(ctx)
		if err != nil {
			t.Fatal(err)
		}
		total += len(hs)
		if len(hs) > 0 {
			spread++
		}
	}
	if total != len(ids) {
		t.Fatalf("backends hold %d hierarchies total, want %d (no duplication at R=1)", total, len(ids))
	}
	if spread < 2 {
		t.Fatalf("all hierarchies landed on one backend; the ring is not sharding")
	}

	// Releases on two hierarchies, then cross-shard queries through the
	// gateway (the root node path was recorded at upload time).
	for _, id := range ids[:2] {
		rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: id, Epsilon: 1, K: 20, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(ctx, rel.Release, roots[id], client.QueryParams{Quantiles: []float64{0.5}}); err != nil {
			t.Fatalf("query on %s: %v", rel.Release, err)
		}
	}
}

// TestGatewayAsyncJob: async releases run on one backend; the gateway
// remembers the owner and serves polls, and the finished release is
// queryable through the scatter fallback.
func TestGatewayAsyncJob(t *testing.T) {
	ctx := context.Background()
	backends := []*backendFixture{
		newBackend(t, engine.Options{}),
		newBackend(t, engine.Options{}),
	}
	_, c, _ := newGateway(t, 1, 2, backends...)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.ReleaseAsync(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitJob(ctx, job.Job, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != "done" || done.Release == "" {
		t.Fatalf("job = %+v", done)
	}
	if _, err := c.Query(ctx, done.Release, "US/CA", client.QueryParams{Quantiles: []float64{0.5}}); err != nil {
		t.Fatalf("querying async release: %v", err)
	}
}

// TestGatewayHealsAfterFullEjection: a stale whole-fleet ejection (a
// transient gateway-side blip) must be healable by the request path —
// routing falls back to the ring owners instead of refusing with 503
// until a probe sweep happens to run.
func TestGatewayHealsAfterFullEjection(t *testing.T) {
	ctx := context.Background()
	backends := []*backendFixture{
		newBackend(t, engine.Options{}),
		newBackend(t, engine.Options{}),
	}
	gw, c, _ := newGateway(t, 2, 1, backends...)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}

	// Eject everything without touching the (perfectly healthy)
	// backends.
	for _, b := range backends {
		gw.Cluster().ReportFailure(b.ts.URL, errors.New("transient blip"))
	}
	if live := gw.Cluster().Live(); len(live) != 0 {
		t.Fatalf("live = %v, want none", live)
	}

	// The next release must go through — and re-admit the fleet.
	if _, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 2}); err != nil {
		t.Fatalf("release through a fully (and wrongly) ejected fleet: %v", err)
	}
	if live := gw.Cluster().Live(); len(live) == 0 {
		t.Fatal("request-path success did not re-admit any backend")
	}
}

// TestGatewayBudgetPassthrough: budget reads route to the owning
// backend, and a budget refusal crosses the gateway as the typed 429.
func TestGatewayBudgetPassthrough(t *testing.T) {
	ctx := context.Background()
	backends := []*backendFixture{
		newBackend(t, engine.Options{MaxEpsilonPerHierarchy: 1}),
		newBackend(t, engine.Options{MaxEpsilonPerHierarchy: 1}),
	}
	_, c, _ := newGateway(t, 1, 2, backends...)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 0.6, K: 50, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := c.Budget(ctx, h.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Enforced || b.SpentEpsilon != 0.6 {
		t.Fatalf("budget = %+v", b)
	}
	_, err = c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 0.6, K: 50, Seed: 2})
	var be *client.BudgetError
	if !errors.As(err, &be) || be.RemainingEpsilon != 0.4 {
		t.Fatalf("over-budget err = %v, want BudgetError with 0.4 remaining", err)
	}
}

// TestGatewayBadRequests pins the 4xx surface: they must not burn
// failover attempts or eject backends.
func TestGatewayBadRequests(t *testing.T) {
	ctx := context.Background()
	b := newBackend(t, engine.Options{})
	gw, c, base := newGateway(t, 1, 1, b)

	cases := []struct {
		name string
		do   func() error
		code int
	}{
		{"unknown hierarchy", func() error {
			_, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: "h-nope", Epsilon: 1})
			return err
		}, http.StatusNotFound},
		{"bad epsilon", func() error {
			h, err := c.UploadHierarchy(ctx, "US", testGroups())
			if err != nil {
				return err
			}
			_, err = c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: -1})
			return err
		}, http.StatusBadRequest},
		{"missing release on query", func() error {
			resp, err := http.Get(base + "/v1/query/US?release=")
			if err != nil {
				return err
			}
			resp.Body.Close()
			return &client.APIError{StatusCode: resp.StatusCode}
		}, http.StatusBadRequest},
		{"unknown job", func() error {
			_, err := c.Job(ctx, "j-nope")
			return err
		}, http.StatusNotFound},
		{"plain batch naming no release", func() error {
			_, err := c.BatchQuery(ctx, "", []client.NodeQuery{{Node: "US"}})
			return err
		}, http.StatusBadRequest},
		{"group above the size bound", func() error {
			_, err := c.UploadHierarchy(ctx, "US", []hcoc.Group{{Path: []string{"CA"}, Size: hcoc.MaxGroupSize + 1}})
			return err
		}, http.StatusBadRequest},
		{"region name with a slash", func() error {
			_, err := c.UploadHierarchy(ctx, "US", []hcoc.Group{
				{Path: []string{"a/b"}, Size: 1}, {Path: []string{"c"}, Size: 2},
			})
			return err
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		err := tc.do()
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != tc.code {
			t.Fatalf("%s: err = %v, want status %d", tc.name, err, tc.code)
		}
	}
	// An extended batch naming no release answers as a backend does:
	// 200, with the failure on the item.
	res, err := c.BatchQuery(ctx, "", []client.NodeQuery{{Op: "stats", Node: "US"}})
	if err != nil || len(res) != 1 || res[0].Error == "" {
		t.Fatalf("extended batch naming no release = %+v, %v; want one per-item error", res, err)
	}
	if live := gw.Cluster().Live(); len(live) != 1 {
		t.Fatalf("4xx traffic ejected the backend: live = %v", live)
	}
}

// TestUploadKeyRefusesUncheckedBodies: an upload the backends refuse
// is unroutable. In particular a region name containing "/" would build
// a tree here that no backend's event log builds, so routing by its
// fingerprint would pick owners the hierarchy id does not name.
func TestUploadKeyRefusesUncheckedBodies(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"root":"US","groups":[{"path":["a","x"],"size":1},{"path":["c","y"],"size":2}]}`: true,
		`{"root":"US","groups":[{"path":["a/b"],"size":1},{"path":["c"],"size":2}]}`:       false,
		`{"root":"US","groups":[{"path":["a"],"size":4194305}]}`:                           false,
		`{"root":"US","groups":[{"path":["a"],"size":-1}]}`:                                false,
		`{"root":"US","groups":[{"path":["a","x"],"size":1},{"path":["c"],"size":2}]}`:     false,
		`{"root":"US","groups":[]}`:                                                        false,
	} {
		if _, got := uploadKey([]byte(body)); got != ok {
			t.Errorf("uploadKey(%s) ok = %v, want %v", body, got, ok)
		}
	}
}

// TestGatewayRoutesStable pins the gateway surface: the backend routes
// plus /v1/cluster, minus the per-node /v1/tenants report.
func TestGatewayRoutesStable(t *testing.T) {
	b := newBackend(t, engine.Options{})
	gw, _, _ := newGateway(t, 1, 1, b)
	var got []string
	for _, rt := range gw.Routes() {
		got = append(got, rt.Method+" "+rt.Pattern)
	}
	want := []string{
		"POST /v1/hierarchy",
		"GET /v1/hierarchy",
		"POST /v1/hierarchy/{id}/events",
		"GET /v1/hierarchy/{id}/versions",
		"POST /v1/release",
		"GET /v1/release",
		"GET /v1/release/{id}",
		"GET /v1/jobs/{id}",
		"POST /v1/query/batch",
		"GET /v1/query/{node...}",
		"GET /v1/budget/{id}",
		"GET /v1/cluster",
		"POST /v1/cluster/nodes",
		"DELETE /v1/cluster/nodes",
		"GET /healthz",
		"GET /metrics",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("routes changed:\ngot  %v\nwant %v", got, want)
	}
}

// TestGatewayMetrics smoke-tests the Prometheus surface.
func TestGatewayMetrics(t *testing.T) {
	ctx := context.Background()
	b := newBackend(t, engine.Options{})
	_, c, _ := newGateway(t, 1, 1, b)
	if _, err := c.UploadHierarchy(ctx, "US", testGroups()); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hcoc_gateway_backends 1",
		"hcoc_gateway_live_backends 1",
		"hcoc_gateway_fanout_uploads_total 1",
		"hcoc_gateway_backend_requests_total{backend=",
		"hcoc_gateway_backend_healthy{backend=",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestGatewayTenantTraffic pins the gateway's per-tenant QoS view: the
// release traffic it forwards is attributed to the owning hierarchy in
// both /v1/cluster and /metrics, with backend compute-queue 429s
// (Retry-After present) counted as throttled.
func TestGatewayTenantTraffic(t *testing.T) {
	ctx := context.Background()
	b := newBackend(t, engine.Options{ComputeSlots: 1, ComputeQueueDepth: 1})
	_, c, gwURL := newGateway(t, 1, 1, b)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// Hold the backend's only slot, queue a second release behind it,
	// then overflow the depth-1 queue: the gateway must surface the
	// backend's 429 and book it as throttled for this tenant.
	hold, err := b.eng.Scheduler().Acquire(ctx, "hog")
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 2})
		queued <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for b.eng.Scheduler().Snapshot().Queued < 1 {
		if !time.Now().Before(deadline) {
			t.Fatal("release never queued behind the held slot")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 3})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests || ae.RetryAfter <= 0 {
		t.Fatalf("overflow through gateway = %v, want 429 with Retry-After", err)
	}
	hold.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued release failed after slot freed: %v", err)
	}

	var cs clusterResponse
	resp, err := http.Get(gwURL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if len(cs.Tenants) != 1 {
		t.Fatalf("cluster tenants = %+v, want exactly one", cs.Tenants)
	}
	ten := cs.Tenants[0]
	if ten.Tenant != h.ID || ten.Requests != 3 || ten.Errors != 1 || ten.Throttled != 1 {
		t.Fatalf("tenant traffic = %+v, want %s with 3 requests, 1 error, 1 throttled", ten, h.ID)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`hcoc_gateway_tenant_requests_total{tenant="` + h.ID + `"} 3`,
		`hcoc_gateway_tenant_errors_total{tenant="` + h.ID + `"} 1`,
		`hcoc_gateway_tenant_throttled_total{tenant="` + h.ID + `"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestGatewayArtifactsAndTopology covers the remaining read surface
// over a shared-store fleet: artifact downloads in both formats through
// the gateway, the merged durable-release listing, and /v1/cluster
// topology (including ?key routing and probe-learned instance ids).
func TestGatewayArtifactsAndTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration skipped in -short mode")
	}
	ctx := context.Background()
	stub := newStub(t)
	backends := []*backendFixture{newSharedBackend(t, stub), newSharedBackend(t, stub)}
	gw, c, base := newGateway(t, 2, 2, backends...)
	gw.Start()
	defer gw.Stop()

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Artifact downloads through the gateway, both formats, agreeing
	// with each other.
	sparse, epsS, err := c.DownloadRelease(ctx, rel.Release)
	if err != nil {
		t.Fatal(err)
	}
	dense, epsD, err := c.DownloadReleaseDense(ctx, rel.Release)
	if err != nil {
		t.Fatal(err)
	}
	if epsS != 1 || epsD != 1 || len(sparse) != len(dense) {
		t.Fatalf("artifact formats disagree: eps %g/%g, nodes %d/%d", epsS, epsD, len(sparse), len(dense))
	}
	if resp, err := http.Get(base + "/v1/release/" + rel.Release + "?format=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// The durable listing merges and dedupes across the fleet: both
	// backends read the one shared artifact, and it lists once.
	arts, err := c.Releases(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || arts[0].Release != rel.Release || arts[0].Hierarchy != h.ID {
		t.Fatalf("merged listing = %+v", arts)
	}

	// Topology introspection: probes recorded each backend's engine
	// instance, and ?key resolves the failover route.
	gw.Cluster().ProbeNow(ctx)
	resp, err := http.Get(base + "/v1/cluster?key=" + h.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var topo struct {
		Replication  int `json:"replication"`
		VirtualNodes int `json:"virtual_nodes"`
		Live         int `json:"live"`
		Backends     []struct {
			URL      string `json:"url"`
			Healthy  bool   `json:"healthy"`
			Instance string `json:"instance"`
			Requests uint64 `json:"requests"`
		} `json:"backends"`
		Route []string `json:"route"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	if topo.Replication != 2 || topo.Live != 2 || len(topo.Backends) != 2 || len(topo.Route) != 2 {
		t.Fatalf("topology = %+v", topo)
	}
	for _, b := range topo.Backends {
		fx := byURL(t, backends, b.URL)
		if b.Instance != fx.eng.ID() {
			t.Fatalf("backend %s instance %q, engine %q", b.URL, b.Instance, fx.eng.ID())
		}
		if !b.Healthy || b.Requests == 0 {
			t.Fatalf("backend state %+v", b)
		}
	}

	// A gateway that forgot its ownership hints (restart) still serves
	// queries via the scatter fallback.
	gw.mu.Lock()
	gw.releaseOwner = map[string]string{}
	gw.mu.Unlock()
	if _, err := c.Query(ctx, rel.Release, "US/WA", client.QueryParams{Quantiles: []float64{0.9}}); err != nil {
		t.Fatalf("query after losing ownership hints: %v", err)
	}
}

// TestGatewayTransportConventions: the gateway speaks the same wire
// conventions as a backend — gzip request bodies, 415 on wrong
// Content-Type/Encoding, 400 on malformed JSON.
func TestGatewayTransportConventions(t *testing.T) {
	b := newBackend(t, engine.Options{})
	_, _, base := newGateway(t, 1, 1, b)

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write([]byte(`{"root":"US","groups":[{"path":["CA"],"size":3}]}`))
	_ = zw.Close()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/hierarchy", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzipped upload: status %d", resp.StatusCode)
	}

	for _, tc := range []struct {
		name, ct, ce, body string
		want               int
	}{
		{"wrong content type", "text/csv", "", "x", http.StatusUnsupportedMediaType},
		{"wrong encoding", "application/json", "br", "{}", http.StatusUnsupportedMediaType},
		{"malformed json", "application/json", "", "{", http.StatusBadRequest},
	} {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/hierarchy", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", tc.ct)
		if tc.ce != "" {
			req.Header.Set("Content-Encoding", tc.ce)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// postJSON hits a gateway admin endpoint and decodes the reply.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func del(t *testing.T, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestNodeAdminEndpoints pins the membership API: joins and drains
// take effect immediately, duplicates are no-ops, unknowns 404, and
// the last backend cannot be drained (409).
func TestNodeAdminEndpoints(t *testing.T) {
	a := newBackend(t, engine.Options{})
	b := newBackend(t, engine.Options{})
	c := newBackend(t, engine.Options{})
	gw, _, gwURL := newGateway(t, 2, 1, a, b)

	var nr nodeResponse
	if code := postJSON(t, gwURL+"/v1/cluster/nodes", nodeRequest{URL: c.ts.URL}, &nr); code != http.StatusOK {
		t.Fatalf("join: status %d", code)
	}
	if !nr.Changed || nr.Backends != 3 {
		t.Fatalf("join reply = %+v", nr)
	}
	if code := postJSON(t, gwURL+"/v1/cluster/nodes", nodeRequest{URL: c.ts.URL}, &nr); code != http.StatusOK || nr.Changed {
		t.Fatalf("duplicate join: status %d, reply %+v", code, nr)
	}
	if code := postJSON(t, gwURL+"/v1/cluster/nodes", nodeRequest{URL: "no-scheme:8080"}, nil); code != http.StatusBadRequest {
		t.Fatalf("schemeless join: status %d", code)
	}
	if code := postJSON(t, gwURL+"/v1/cluster/nodes", nodeRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty join: status %d", code)
	}

	if code := del(t, gwURL+"/v1/cluster/nodes?url=http://nope.invalid"); code != http.StatusNotFound {
		t.Fatalf("unknown drain: status %d", code)
	}
	if code := del(t, gwURL+"/v1/cluster/nodes"); code != http.StatusBadRequest {
		t.Fatalf("drain without url: status %d", code)
	}
	for _, u := range []string{c.ts.URL, b.ts.URL} {
		if code := del(t, gwURL+"/v1/cluster/nodes?url="+u); code != http.StatusOK {
			t.Fatalf("drain %s: status %d", u, code)
		}
	}
	if code := del(t, gwURL+"/v1/cluster/nodes?url="+a.ts.URL); code != http.StatusConflict {
		t.Fatalf("draining the last backend: status %d, want 409", code)
	}
	if got := gw.Cluster().Backends(); len(got) != 1 || got[0] != a.ts.URL {
		t.Fatalf("backends after churn = %v", got)
	}
}
