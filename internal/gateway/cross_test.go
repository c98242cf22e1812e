package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/histogram"
	"hcoc/internal/serve"
)

// countingBackend is an in-process backend on the shared store whose
// artifact downloads (GET /v1/release/{id}) and batch queries are
// counted — the probes for the gateway's forward-whole contract.
type countingBackend struct {
	fixture   *backendFixture
	downloads atomic.Int64
	batches   atomic.Int64
}

func newCountingBackend(t *testing.T, stub string) *countingBackend {
	t.Helper()
	cb := &countingBackend{}
	st := sharedStoreFixture(t, stub)
	eng := engine.New(engine.Options{Store: st})
	srv, err := serve.NewServer(eng, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/release/") {
			cb.downloads.Add(1)
		}
		if r.URL.Path == "/v1/query/batch" {
			cb.batches.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	cb.fixture = &backendFixture{ts: ts, eng: eng, c: c}
	return cb
}

// TestGatewayCrossReleaseBatch drives a multi-release batch through the
// gateway over two releases computed on different backends: the
// 16-query batch is forwarded whole to one backend, which reads the
// other backend's release from the shared store — zero gateway-side
// artifact downloads — and the cross-release answers match computing
// from the downloaded artifacts. A batch whose entries all read one
// release forwards whole the same way.
func TestGatewayCrossReleaseBatch(t *testing.T) {
	ctx := context.Background()
	stub := newStub(t)
	cbs := []*countingBackend{newCountingBackend(t, stub), newCountingBackend(t, stub)}
	gw, c, _ := newGateway(t, 1, 1, cbs[0].fixture, cbs[1].fixture)

	// Two hierarchies of the same shape whose primaries differ (R=1),
	// so each release is computed on a different backend.
	var ids []string
	seen := map[string]bool{}
	for i := 0; len(ids) < 2; i++ {
		if i == 64 {
			t.Fatal("no two hierarchies landed on different backends")
		}
		groups := append(testGroups(), hcoc.Group{Path: []string{"CA"}, Size: int64(i + 1)})
		h, err := c.UploadHierarchy(ctx, "US", groups)
		if err != nil {
			t.Fatal(err)
		}
		owner := gw.Cluster().Owners(hierarchyFP(h.ID))[0]
		if !seen[owner] {
			seen[owner] = true
			ids = append(ids, h.ID)
		}
	}
	rels := make([]string, 2)
	for i, id := range ids {
		r, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: id, Epsilon: 1, K: 50, Seed: int64(7 + i)})
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = r.Release
	}
	for _, cb := range cbs {
		if n := cb.fixture.eng.Metrics().Releases; n != 1 {
			t.Fatalf("backend %s computed %d releases, want 1", cb.fixture.ts.URL, n)
		}
	}

	downloads := func() int64 { return cbs[0].downloads.Load() + cbs[1].downloads.Load() }
	batches := func() string { return fmt.Sprint(cbs[0].batches.Load(), cbs[1].batches.Load()) }
	base := downloads()

	// 16 queries over 2 releases: forwarded whole (0 downloads, one
	// backend sees one batch), all answered.
	queries := make([]client.NodeQuery, 16)
	nodes := []string{"US", "US/CA", "US/WA", "US/CA"}
	ops := []string{"emd", "delta", "series", "compare"}
	for i := range queries {
		queries[i] = client.NodeQuery{Op: ops[i%4], Releases: rels, Node: nodes[i%4]}
	}
	results, err := c.BatchQuery(ctx, "", queries)
	if err != nil {
		t.Fatal(err)
	}
	if got := downloads() - base; got != 0 {
		t.Fatalf("cross batch made %d artifact downloads, want 0 (forwarded whole)", got)
	}
	if got := batches(); got != "1 0" && got != "0 1" {
		t.Fatalf("backend batch counts = %s, want the whole batch on one backend", got)
	}
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("query %d (%s): %s", i, queries[i].Op, res.Error)
		}
	}

	// The gateway's answers equal computing from the raw artifacts.
	relA, _, err := c.DownloadRelease(ctx, rels[0])
	if err != nil {
		t.Fatal(err)
	}
	relB, _, err := c.DownloadRelease(ctx, rels[1])
	if err != nil {
		t.Fatal(err)
	}
	wantEMD := histogram.EMDSparse(relA["US"], relB["US"])
	if results[0].EMD == nil || *results[0].EMD != wantEMD {
		t.Fatalf("EMD = %v, want %d", results[0].EMD, wantEMD)
	}
	wantGroups := relB["US/CA"].Groups() - relA["US/CA"].Groups()
	if results[1].GroupsDelta == nil || *results[1].GroupsDelta != wantGroups {
		t.Fatalf("GroupsDelta = %v, want %d", results[1].GroupsDelta, wantGroups)
	}
	series := results[2]
	if len(series.Series) != 2 || series.Series[0].Release != rels[0] || series.Series[1].Release != rels[1] {
		t.Fatalf("series = %+v", series.Series)
	}
	if series.Series[0].Groups != relA["US/WA"].Groups() || series.Series[1].Groups != relB["US/WA"].Groups() {
		t.Fatalf("series groups = %d, %d; want %d, %d",
			series.Series[0].Groups, series.Series[1].Groups, relA["US/WA"].Groups(), relB["US/WA"].Groups())
	}
	compare := results[3]
	if compare.Left == nil || compare.Right == nil || compare.Left.Groups != relA["US/CA"].Groups() {
		t.Fatalf("compare = %+v", compare)
	}

	// Extended entries confined to one release forward whole: zero
	// gateway-side downloads (the 2 just above were ours).
	base = downloads()
	oneRel, err := c.BatchQuery(ctx, rels[0], []client.NodeQuery{
		{Op: "stats", Node: "US", Quantiles: []float64{0.5}},
		{Op: "stats", Releases: []string{rels[0]}, Node: "US/CA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if oneRel[0].Error != "" || oneRel[1].Error != "" {
		t.Fatalf("single-release extended batch: %+v", oneRel)
	}
	if got := downloads() - base; got != 0 {
		t.Fatalf("single-release batch made %d gateway downloads, want 0 (forwarded whole)", got)
	}

	// A release no backend holds fails its queries, not the batch.
	mixed, err := c.BatchQuery(ctx, "", []client.NodeQuery{
		{Op: "emd", Releases: []string{rels[0], "r-nope"}, Node: "US"},
		{Op: "emd", Releases: rels, Node: "US"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mixed[0].Error == "" || mixed[1].Error != "" {
		t.Fatalf("mixed availability: %+v", mixed)
	}
}
