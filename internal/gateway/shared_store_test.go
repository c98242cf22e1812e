package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/store"
	"hcoc/internal/store/s3stub"
)

// newStub starts an in-process S3 stub serving the "hcoc" bucket and
// returns its endpoint.
func newStub(t *testing.T) string {
	t.Helper()
	stub := httptest.NewServer(s3stub.New("hcoc"))
	t.Cleanup(stub.Close)
	return stub.URL
}

// sharedStoreFixture opens one node's *store.Store over the shared
// bucket behind endpoint.
func sharedStoreFixture(t *testing.T, endpoint string) *store.Store {
	t.Helper()
	b, err := store.NewS3(store.S3Options{Endpoint: endpoint, Bucket: "hcoc", Prefix: "fleet"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// newSharedBackend starts one backend whose store is the shared bucket
// behind endpoint — the multi-node deployment.
func newSharedBackend(t *testing.T, endpoint string) *backendFixture {
	t.Helper()
	return newBackend(t, engine.Options{Store: sharedStoreFixture(t, endpoint)})
}

// TestGatewaySharedStore: with every backend mounting one shared object
// store, a release is computed once, and a backend that never computed
// it still serves it byte-identically straight from the shared backend.
func TestGatewaySharedStore(t *testing.T) {
	ctx := context.Background()
	stub := newStub(t)
	backends := []*backendFixture{newSharedBackend(t, stub), newSharedBackend(t, stub)}
	_, c, _ := newGateway(t, 2, 1, backends...)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rel.CacheHit || rel.StoreHit {
		t.Fatalf("first release = %+v, want a fresh computation", rel)
	}

	// Every backend — including the one that computed nothing — serves
	// the artifact byte-identically from the shared store, with zero
	// budget drawn locally on the non-computing node.
	var bodies []string
	for _, b := range backends {
		sparse, epsilon, err := b.c.DownloadRelease(ctx, rel.Release)
		if err != nil {
			t.Fatalf("backend %s: %v", b.ts.URL, err)
		}
		if epsilon != 1 {
			t.Fatalf("backend %s served epsilon %g", b.ts.URL, epsilon)
		}
		bodies = append(bodies, fmt.Sprintf("%v", sparse))
	}
	if bodies[0] != bodies[1] {
		t.Fatal("backends served different artifacts from the shared store")
	}
	computed := 0
	for _, b := range backends {
		if b.eng.Metrics().Releases > 0 {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d backends computed the release, want exactly 1", computed)
	}
}

// TestGatewayColdJoin is the elasticity loop on the shared store: a
// backend joins at runtime and, with nothing copied to it, answers the
// identical release request as a store hit without spending budget,
// and serves the release computed before it joined byte-identically —
// directly and, once the original node is gone, through the gateway.
func TestGatewayColdJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration skipped in -short mode")
	}
	ctx := context.Background()
	stub := newStub(t)
	a := newSharedBackend(t, stub)
	_, c, gwURL := newGateway(t, 2, 1, a)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	req := client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7}
	rel, err := c.Release(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	original, err := a.c.DownloadReleaseBytes(ctx, rel.Release, "")
	if err != nil {
		t.Fatal(err)
	}

	b := newSharedBackend(t, stub)
	var nr nodeResponse
	if code := postJSON(t, gwURL+"/v1/cluster/nodes", nodeRequest{URL: b.ts.URL}, &nr); code != http.StatusOK || !nr.Changed || nr.Backends != 2 {
		t.Fatalf("join: status %d, reply %+v", code, nr)
	}
	var cs clusterResponse
	resp, err := http.Get(gwURL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&cs)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Joins != 1 {
		t.Fatalf("cluster joins = %d, want 1", cs.Joins)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "hcoc_gateway_node_joins_total 1\n") {
		t.Fatalf("metrics missing hcoc_gateway_node_joins_total 1:\n%s", m)
	}

	// The identical release sent to the new node directly is a store
	// hit. (Probed before any artifact read, which would admit the
	// release into its LRU.)
	again, err := b.c.Release(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Release != rel.Release || !again.StoreHit || again.CacheHit {
		t.Fatalf("release on the joined node = %+v, want a store hit on %s", again, rel.Release)
	}
	if m := b.eng.Metrics(); m.EpsilonSpentLocal != 0 || m.Releases != 0 {
		t.Fatalf("joined node spent %g epsilon over %d releases, want none", m.EpsilonSpentLocal, m.Releases)
	}

	got, err := b.c.DownloadReleaseBytes(ctx, rel.Release, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, original) {
		t.Fatal("joined node serves different artifact bytes")
	}
	a.ts.Close()
	viaGateway, err := c.DownloadReleaseBytes(ctx, rel.Release, "")
	if err != nil {
		t.Fatalf("download through the gateway after losing the original node: %v", err)
	}
	if !bytes.Equal(viaGateway, original) {
		t.Fatal("gateway serves different artifact bytes after the original node died")
	}
}
