package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hcoc/client"
	"hcoc/internal/engine"
)

// releasePair uploads smallGroups and runs two seeded releases of the
// same hierarchy, returning both release ids.
func releasePair(t *testing.T, ts *httptest.Server) (string, string) {
	t.Helper()
	hr := uploadGroups(t, ts, "US", smallGroups())
	ids := make([]string, 2)
	for i, seed := range []int64{7, 8} {
		var rr client.Release
		req := client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: seed}
		if status, body := postJSON(t, ts.URL+"/v1/release", req, &rr); status != http.StatusOK {
			t.Fatalf("release seed %d: status %d: %s", seed, status, body)
		}
		ids[i] = rr.Release
	}
	return ids[0], ids[1]
}

// TestServeCrossReleaseBatch exercises the extended batch body: every
// cross-release op in one batch, per-query errors for unknown releases
// and unknown ops, and the default-release fallback for plain-stats
// entries riding in an extended batch.
func TestServeCrossReleaseBatch(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	rel1, rel2 := releasePair(t, ts)

	reqBody := crossBatch(rel1, rel2)
	var resp batchQueryResponse
	if status, body := postJSON(t, ts.URL+"/v1/query/batch", reqBody, &resp); status != http.StatusOK {
		t.Fatalf("cross batch: status %d: %s", status, body)
	}
	if len(resp.Results) != len(reqBody.Queries) {
		t.Fatalf("got %d results for %d queries", len(resp.Results), len(reqBody.Queries))
	}

	emd := resp.Results[0]
	if emd.Error != "" || emd.EMD == nil || emd.GroupsDelta == nil || emd.PeopleDelta == nil {
		t.Fatalf("emd item: %+v (err %q)", emd, emd.Error)
	}
	if emd.Op != "emd" || len(emd.Releases) != 2 {
		t.Fatalf("emd echo: op %q releases %v", emd.Op, emd.Releases)
	}
	delta := resp.Results[1]
	if delta.Error != "" || delta.EMD != nil || delta.GroupsDelta == nil {
		t.Fatalf("delta item: %+v", delta)
	}
	series := resp.Results[2]
	if series.Error != "" || len(series.Series) != 2 {
		t.Fatalf("series item: %+v", series)
	}
	if series.Series[0].Release != rel1 || series.Series[1].Release != rel2 {
		t.Fatalf("series releases: %q, %q", series.Series[0].Release, series.Series[1].Release)
	}
	if len(series.Series[0].Quantiles) != 1 || series.Series[0].Quantiles[0].Q != 0.9 {
		t.Fatalf("series quantiles: %+v", series.Series[0].Quantiles)
	}
	compare := resp.Results[3]
	if compare.Error != "" || compare.Left == nil || compare.Right == nil {
		t.Fatalf("compare item: %+v", compare)
	}
	if compare.Left.Groups == 0 || compare.Right.Groups == 0 {
		t.Fatalf("compare reports empty: %+v", compare)
	}

	// A plain-stats entry in an extended batch uses the default release
	// and must match the single-query endpoint.
	stats := resp.Results[4]
	if stats.Error != "" {
		t.Fatalf("stats item error: %q", stats.Error)
	}
	var single client.NodeReport
	if status, body := getJSON(t, fmt.Sprintf("%s/v1/query/US?release=%s", ts.URL, rel1), &single); status != http.StatusOK {
		t.Fatalf("single query: status %d: %s", status, body)
	}
	if got, want := mustJSON(t, stats.NodeReport), mustJSON(t, single); got != want {
		t.Fatalf("stats item = %s\nsingle query = %s", got, want)
	}

	// Failures stay per-query: the batch is 200, the items carry errors.
	if e := resp.Results[5].Error; e == "" || !strings.Contains(e, "nope") {
		t.Fatalf("unknown release error: %q", e)
	}
	if e := resp.Results[6].Error; e == "" || !strings.Contains(e, "unknown op") {
		t.Fatalf("unknown op error: %q", e)
	}

	// A series result equals querying each release separately.
	for i, rel := range []string{rel1, rel2} {
		var one client.NodeReport
		url := fmt.Sprintf("%s/v1/query/US?release=%s&q=0.9", ts.URL, rel)
		if status, body := getJSON(t, url, &one); status != http.StatusOK {
			t.Fatalf("single query %s: status %d: %s", rel, status, body)
		}
		if got, want := mustJSON(t, series.Series[i].NodeReport), mustJSON(t, one); got != want {
			t.Fatalf("series[%d] = %s\nsingle = %s", i, got, want)
		}
	}

	// An extended batch with no release anywhere fails per query, not
	// whole-batch: mixing one valid cross entry keeps the batch 200.
	mixed := mixedBatch(rel1, rel2)
	var mixedResp batchQueryResponse
	if status, body := postJSON(t, ts.URL+"/v1/query/batch", mixed, &mixedResp); status != http.StatusOK {
		t.Fatalf("mixed batch: status %d: %s", status, body)
	}
	if mixedResp.Results[0].Error == "" || mixedResp.Results[1].Error != "" {
		t.Fatalf("mixed batch results: %+v", mixedResp.Results)
	}
}

// crossBatch is an extended batch over two releases: every
// cross-release op, a stats entry on the default release, and entries
// failing on an unknown release and on an unknown op.
func crossBatch(rel1, rel2 string) batchQueryRequest {
	return batchQueryRequest{
		Release: rel1,
		Queries: []client.NodeQuery{
			{Op: "emd", Releases: []string{rel1, rel2}, Node: "US"},
			{Op: "delta", Releases: []string{rel1, rel2}, Node: "US/CA"},
			{Op: "series", Releases: []string{rel1, rel2}, Node: "US", Quantiles: []float64{0.9}},
			{Op: "compare", Releases: []string{rel1, rel2}, Node: "US/WA"},
			{Op: "stats", Node: "US"},                                   // default release
			{Op: "emd", Releases: []string{rel1, "r-nope"}, Node: "US"}, // unknown release
			{Op: "drift", Releases: []string{rel1, rel2}, Node: "US"},   // unknown op
		},
	}
}

// mixedBatch is an extended batch naming no default release: its stats
// entry fails on its own item, its emd entry answers.
func mixedBatch(rel1, rel2 string) batchQueryRequest {
	return batchQueryRequest{Queries: []client.NodeQuery{
		{Op: "stats", Node: "US"},
		{Op: "emd", Releases: []string{rel1, rel2}, Node: "US"},
	}}
}

// benchServer stands up a server with two releases of smallGroups for
// the cross-release benchmark.
func benchServer(b *testing.B) (*httptest.Server, string, string) {
	b.Helper()
	srv, err := NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)

	recs := make([]client.EventGroup, 0, len(smallGroups()))
	for _, g := range smallGroups() {
		recs = append(recs, client.EventGroup{Path: g.Path, Size: g.Size})
	}
	var hr client.Hierarchy
	benchPost(b, ts.URL+"/v1/hierarchy", hierarchyRequest{Root: "US", Groups: recs}, &hr)
	ids := make([]string, 2)
	for i, seed := range []int64{7, 8} {
		var rr client.Release
		benchPost(b, ts.URL+"/v1/release", client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: seed}, &rr)
		ids[i] = rr.Release
	}
	return ts, ids[0], ids[1]
}

func benchPost(b *testing.B, url string, body any, out any) {
	b.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s: status %d: %s", url, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			b.Fatal(err)
		}
	}
}

// crossEntries builds the benchmark workload: 16 queries spanning two
// releases, mixing every aggregate.
func crossEntries(rel1, rel2 string) []client.NodeQuery {
	nodes := []string{"US", "US/CA", "US/WA", "US/CA"}
	entries := make([]client.NodeQuery, 16)
	for i := range entries {
		n := nodes[i%len(nodes)]
		switch i % 4 {
		case 0:
			entries[i] = client.NodeQuery{Op: "emd", Releases: []string{rel1, rel2}, Node: n}
		case 1:
			entries[i] = client.NodeQuery{Op: "delta", Releases: []string{rel1, rel2}, Node: n}
		case 2:
			entries[i] = client.NodeQuery{Op: "series", Releases: []string{rel1, rel2}, Node: n, Quantiles: []float64{0.5}}
		default:
			entries[i] = client.NodeQuery{Op: "compare", Releases: []string{rel1, rel2}, Node: n}
		}
	}
	return entries
}

// BenchmarkCrossReleaseBatch compares the planned 16-query cross-release
// batch (one request, two artifact fetches) against the sequential
// baseline a client without the batch endpoint would run: one request
// per query, each fetching its releases independently. The batch path
// must beat sequential by >= 2x.
func BenchmarkCrossReleaseBatch(b *testing.B) {
	ts, rel1, rel2 := benchServer(b)
	entries := crossEntries(rel1, rel2)

	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var resp batchQueryResponse
			benchPost(b, ts.URL+"/v1/query/batch", batchQueryRequest{Queries: entries}, &resp)
			if len(resp.Results) != len(entries) {
				b.Fatalf("got %d results", len(resp.Results))
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, e := range entries {
				var resp batchQueryResponse
				benchPost(b, ts.URL+"/v1/query/batch", batchQueryRequest{Queries: []client.NodeQuery{e}}, &resp)
				if resp.Results[0].Error != "" {
					b.Fatal(resp.Results[0].Error)
				}
			}
		}
	})
}
