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
	"time"

	"hcoc"
	"hcoc/internal/dataset"
	"hcoc/internal/engine"
	"hcoc/internal/store"
)

func newTestServer(t *testing.T, opts engine.Options) *httptest.Server {
	t.Helper()
	srv, err := NewServer(engine.New(opts), opts.Store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// openStore opens a durable store over dir and arranges its closure.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// taxiGroups generates a small synthetic taxi workload, the paper's
// dense large-size dataset.
func taxiGroups(t *testing.T) []hcoc.Group {
	t.Helper()
	groups, err := dataset.Generate(dataset.Taxi, dataset.Config{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("parsing response %q: %v", data, err)
		}
	}
	return resp.StatusCode, string(data)
}

func getJSON(t *testing.T, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("parsing response %q: %v", data, err)
		}
	}
	return resp.StatusCode, string(data)
}

func uploadGroups(t *testing.T, ts *httptest.Server, root string, groups []hcoc.Group) hierarchyResponse {
	t.Helper()
	recs := make([]groupRecord, len(groups))
	for i, g := range groups {
		recs[i] = groupRecord{Path: g.Path, Size: g.Size}
	}
	var hr hierarchyResponse
	status, body := postJSON(t, ts.URL+"/v1/hierarchy", hierarchyRequest{Root: root, Groups: recs}, &hr)
	if status != http.StatusOK {
		t.Fatalf("hierarchy upload: status %d: %s", status, body)
	}
	return hr
}

// TestServeEndToEnd runs the acceptance flow: upload synthetic taxi
// groups, trigger a release, query a node quantile, then verify that a
// second identical release is answered from the cache — both in the
// response and in the exported cache-hit metric.
func TestServeEndToEnd(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	groups := taxiGroups(t)
	hr := uploadGroups(t, ts, "Manhattan", groups)
	if hr.Depth < 2 || hr.Groups == 0 {
		t.Fatalf("implausible hierarchy: %+v", hr)
	}

	relReq := releaseRequest{
		Hierarchy: hr.ID, Algorithm: "topdown", Epsilon: 1, K: 2000, Seed: 42,
	}
	var first releaseResponse
	if status, body := postJSON(t, ts.URL+"/v1/release", relReq, &first); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}
	if first.CacheHit || first.Deduped {
		t.Fatalf("first release reported cache_hit=%v deduped=%v", first.CacheHit, first.Deduped)
	}
	if first.Nodes != hr.Nodes {
		t.Fatalf("release covers %d nodes, hierarchy has %d", first.Nodes, hr.Nodes)
	}

	// The released quantile must match a local run with the same options.
	tree, err := hcoc.BuildHierarchy("Manhattan", groups)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hcoc.Release(tree, hcoc.Options{Epsilon: 1, K: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	node := tree.ByLevel[1][0].Path
	var qr queryResponse
	url := fmt.Sprintf("%s/v1/query/%s?release=%s&q=0.5&q=0.9&k=1&topcode=8", ts.URL, node, first.Release)
	if status, body := getJSON(t, url, &qr); status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, body)
	}
	wantMedian, err := hcoc.Quantile(want[node], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Quantiles) != 2 || qr.Quantiles[0].Size != wantMedian {
		t.Fatalf("served q0.5 = %+v, want %d", qr.Quantiles, wantMedian)
	}
	if qr.Groups != want[node].Groups() {
		t.Fatalf("served groups = %d, want %d", qr.Groups, want[node].Groups())
	}
	if len(qr.TopCoded) != 9 {
		t.Fatalf("top-coded table has %d cells, want 9", len(qr.TopCoded))
	}

	// Second identical release: served from cache.
	var second releaseResponse
	if status, body := postJSON(t, ts.URL+"/v1/release", relReq, &second); status != http.StatusOK {
		t.Fatalf("second release: status %d: %s", status, body)
	}
	if !second.CacheHit {
		t.Fatal("second identical release was not a cache hit")
	}
	if second.Release != first.Release {
		t.Fatalf("release keys differ: %q vs %q", second.Release, first.Release)
	}

	// The cache hit must be visible in the exported metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hcoc_cache_hits_total 1",
		"hcoc_cache_misses_total 1",
		"hcoc_cache_hit_rate 0.5",
		"hcoc_releases_total 1",
		"hcoc_inflight_releases 0",
		"hcoc_hierarchies 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestServeReleaseArtifact downloads a cached release and checks it is
// a valid hcoc artifact.
func TestServeReleaseArtifact(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	hr := uploadGroups(t, ts, "US", smallGroups())

	var rr releaseResponse
	req := releaseRequest{Hierarchy: hr.ID, Epsilon: 2, K: 50, Seed: 7}
	if status, body := postJSON(t, ts.URL+"/v1/release", req, &rr); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/v1/release/" + rr.Release)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact: status %d", resp.StatusCode)
	}
	rel, epsilon, err := hcoc.ReadRelease(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if epsilon != 2 {
		t.Fatalf("artifact epsilon = %g, want 2", epsilon)
	}
	if len(rel) != hr.Nodes {
		t.Fatalf("artifact has %d nodes, want %d", len(rel), hr.Nodes)
	}

	// The dense v1 shape stays available and decodes to the same
	// release; an unknown format is a clean 400.
	dresp, err := http.Get(ts.URL + "/v1/release/" + rr.Release + "?format=dense")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("dense artifact: status %d", dresp.StatusCode)
	}
	dense, _, err := hcoc.ReadRelease(dresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for path, h := range rel {
		if !h.Equal(dense[path]) {
			t.Fatalf("dense artifact differs from sparse at %q", path)
		}
	}
	if status, body := getJSON(t, ts.URL+"/v1/release/"+rr.Release+"?format=xml", nil); status != http.StatusBadRequest {
		t.Fatalf("format=xml: status %d: %s", status, body)
	}
}

func smallGroups() []hcoc.Group {
	var groups []hcoc.Group
	for i := 0; i < 40; i++ {
		groups = append(groups, hcoc.Group{Path: []string{"CA"}, Size: int64(i % 6)})
		groups = append(groups, hcoc.Group{Path: []string{"WA"}, Size: int64(i % 4)})
	}
	return groups
}

func TestServeHierarchyIdempotent(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	a := uploadGroups(t, ts, "US", smallGroups())
	b := uploadGroups(t, ts, "US", smallGroups())
	if a.ID != b.ID {
		t.Fatalf("same upload got different ids: %q vs %q", a.ID, b.ID)
	}
	var list []hierarchyResponse
	if status, body := getJSON(t, ts.URL+"/v1/hierarchy", &list); status != http.StatusOK {
		t.Fatalf("list: status %d: %s", status, body)
	}
	if len(list) != 1 {
		t.Fatalf("listed %d hierarchies, want 1", len(list))
	}
}

func TestServeErrors(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	hr := uploadGroups(t, ts, "US", smallGroups())

	cases := []struct {
		name string
		do   func() (int, string)
		want int
	}{
		{"unknown hierarchy", func() (int, string) {
			return postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: "h-missing", Epsilon: 1}, nil)
		}, http.StatusNotFound},
		{"bad epsilon", func() (int, string) {
			return postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 0}, nil)
		}, http.StatusBadRequest},
		{"negative k", func() (int, string) {
			return postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: -1}, nil)
		}, http.StatusBadRequest},
		{"bad algorithm", func() (int, string) {
			return postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, Algorithm: "sideways"}, nil)
		}, http.StatusBadRequest},
		{"bad method", func() (int, string) {
			return postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, Methods: []string{"psychic"}}, nil)
		}, http.StatusBadRequest},
		{"empty upload", func() (int, string) {
			return postJSON(t, ts.URL+"/v1/hierarchy", hierarchyRequest{Root: "US"}, nil)
		}, http.StatusBadRequest},
		{"negative size", func() (int, string) {
			return postJSON(t, ts.URL+"/v1/hierarchy", hierarchyRequest{
				Root: "US", Groups: []groupRecord{{Path: []string{"CA"}, Size: -3}},
			}, nil)
		}, http.StatusBadRequest},
		{"query without release", func() (int, string) {
			return getJSON(t, ts.URL+"/v1/query/US/CA", nil)
		}, http.StatusBadRequest},
		{"query unknown release", func() (int, string) {
			return getJSON(t, ts.URL+"/v1/query/US/CA?release=r-beef", nil)
		}, http.StatusNotFound},
		{"artifact unknown release", func() (int, string) {
			return getJSON(t, ts.URL+"/v1/release/r-beef", nil)
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		status, body := tc.do()
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, body)
		}
		if status != http.StatusOK && !strings.Contains(body, "error") {
			t.Errorf("%s: error response has no error field: %s", tc.name, body)
		}
	}

	// Query errors against a real release.
	var rr releaseResponse
	if status, body := postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50}, &rr); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}
	if status, _ := getJSON(t, ts.URL+"/v1/query/US/NV?release="+rr.Release, nil); status != http.StatusBadRequest {
		t.Errorf("unknown node: status %d, want 400", status)
	}
	if status, _ := getJSON(t, ts.URL+"/v1/query/US/CA?release="+rr.Release+"&q=1.5", nil); status != http.StatusBadRequest {
		t.Errorf("out-of-range quantile: status %d, want 400", status)
	}
	if status, _ := getJSON(t, ts.URL+"/v1/query/US/CA?release="+rr.Release+"&topcode=-1", nil); status != http.StatusBadRequest {
		t.Errorf("non-positive topcode: status %d, want 400", status)
	}
	// NaN and Inf parse as floats but must be rejected as quantiles, not
	// leak into (and break) the JSON response.
	for _, q := range []string{"NaN", "Inf", "-Inf"} {
		if status, _ := getJSON(t, ts.URL+"/v1/query/US/CA?release="+rr.Release+"&q="+q, nil); status != http.StatusBadRequest {
			t.Errorf("q=%s: status %d, want 400", q, status)
		}
	}
}

// TestServeHierarchyStoreBounded verifies the uploaded-tree store
// rejects new hierarchies at capacity while staying idempotent for
// already-stored ones.
func TestServeHierarchyStoreBounded(t *testing.T) {
	srv, err := NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.maxTrees = 1
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	first := uploadGroups(t, ts, "US", smallGroups())
	// Same content again: idempotent, not a second slot.
	if again := uploadGroups(t, ts, "US", smallGroups()); again.ID != first.ID {
		t.Fatalf("idempotent re-upload changed id: %q vs %q", again.ID, first.ID)
	}
	status, body := postJSON(t, ts.URL+"/v1/hierarchy", hierarchyRequest{
		Root: "EU", Groups: []groupRecord{{Path: []string{"FR"}, Size: 2}},
	}, nil)
	if status != http.StatusInsufficientStorage {
		t.Fatalf("upload past capacity: status %d (%s), want 507", status, body)
	}
}

// TestServeRestartDurability is the acceptance path for the durable
// store: a release computed before a server restart is served after it
// — artifact download, node queries, and an identical POST /v1/release
// — from disk, without recomputation.
func TestServeRestartDurability(t *testing.T) {
	dir := t.TempDir()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewServer(engine.New(engine.Options{Store: st1}), st1)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	hr := uploadGroups(t, ts1, "US", smallGroups())
	var first releaseResponse
	req := releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 11}
	if status, body := postJSON(t, ts1.URL+"/v1/release", req, &first); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}
	var query1 queryResponse
	if status, body := getJSON(t, ts1.URL+"/v1/query/US/CA?release="+first.Release+"&q=0.5", &query1); status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, body)
	}
	// "Kill" the first server.
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh engine, fresh server, same data dir.
	st2 := openStore(t, dir)
	srv2, err := NewServer(engine.New(engine.Options{Store: st2}), st2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)

	// The hierarchy survived: listed, and usable without re-upload.
	var hierarchies []hierarchyResponse
	if status, body := getJSON(t, ts2.URL+"/v1/hierarchy", &hierarchies); status != http.StatusOK {
		t.Fatalf("list hierarchies: status %d: %s", status, body)
	}
	if len(hierarchies) != 1 || hierarchies[0].ID != hr.ID {
		t.Fatalf("hierarchies after restart = %+v, want %s", hierarchies, hr.ID)
	}

	// The artifact is listed as durable.
	var artifacts []releaseListEntry
	if status, body := getJSON(t, ts2.URL+"/v1/release", &artifacts); status != http.StatusOK {
		t.Fatalf("list releases: status %d: %s", status, body)
	}
	if len(artifacts) != 1 || artifacts[0].Release != first.Release || artifacts[0].Hierarchy != hr.ID {
		t.Fatalf("artifacts after restart = %+v", artifacts)
	}

	// An identical release request is a store hit: no recomputation.
	// (Probed first: any artifact or query read would admit the stored
	// release into the fresh LRU and turn this into a cache hit.)
	var again releaseResponse
	if status, body := postJSON(t, ts2.URL+"/v1/release", req, &again); status != http.StatusOK {
		t.Fatalf("release after restart: status %d: %s", status, body)
	}
	if !again.StoreHit || again.CacheHit {
		t.Fatalf("release after restart: store_hit=%v cache_hit=%v, want a store hit", again.StoreHit, again.CacheHit)
	}
	if again.Release != first.Release {
		t.Fatalf("release key changed across restart: %q vs %q", again.Release, first.Release)
	}

	// The artifact downloads from disk and decodes.
	resp, err := http.Get(ts2.URL + "/v1/release/" + first.Release)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact after restart: status %d", resp.StatusCode)
	}
	if _, _, err := hcoc.ReadRelease(resp.Body); err != nil {
		t.Fatal(err)
	}

	// Queries serve from disk with the same answers.
	var query2 queryResponse
	if status, body := getJSON(t, ts2.URL+"/v1/query/US/CA?release="+first.Release+"&q=0.5", &query2); status != http.StatusOK {
		t.Fatalf("query after restart: status %d: %s", status, body)
	}
	if query2.Median != query1.Median || query2.Groups != query1.Groups {
		t.Fatalf("post-restart query %+v differs from pre-restart %+v", query2, query1)
	}

	metrics, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	raw, _ := io.ReadAll(metrics.Body)
	// The spend of the pre-restart release is replayed from the store
	// manifest into the total; this process drew nothing.
	for _, want := range []string{
		"hcoc_releases_total 0",
		"hcoc_store_artifacts 1",
		"hcoc_epsilon_spent_total 1",
		"hcoc_epsilon_spent_local 0",
		`hcoc_store_backend_info{backend="disk",shared="false"} 1`,
	} {
		if !strings.Contains(string(raw), want+"\n") {
			t.Errorf("metrics after restart missing %q", want)
		}
	}
}

// TestServeAsyncJob drives the async lifecycle: 202 with a job id,
// polling to done, then querying the completed release.
func TestServeAsyncJob(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	hr := uploadGroups(t, ts, "US", smallGroups())

	var accepted jobResponse
	req := releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 5, Async: true}
	status, body := postJSON(t, ts.URL+"/v1/release", req, nil)
	if status != http.StatusAccepted {
		t.Fatalf("async release: status %d: %s", status, body)
	}
	if err := json.Unmarshal([]byte(body), &accepted); err != nil {
		t.Fatalf("parsing 202 body %q: %v", body, err)
	}
	if accepted.Job == "" || !strings.HasPrefix(accepted.Job, "j-") {
		t.Fatalf("202 body has no job id: %+v", accepted)
	}
	if accepted.Status != "queued" && accepted.Status != "running" {
		t.Fatalf("202 status = %q", accepted.Status)
	}

	var done jobResponse
	deadline := time.Now().Add(30 * time.Second)
	for {
		if status, body := getJSON(t, ts.URL+"/v1/jobs/"+accepted.Job, &done); status != http.StatusOK {
			t.Fatalf("poll: status %d: %s", status, body)
		}
		if done.Status == "done" || done.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", done.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if done.Status != "done" || done.Release == "" || done.Error != "" {
		t.Fatalf("finished job = %+v", done)
	}
	if done.FinishedAt == "" || done.StartedAt == "" {
		t.Fatalf("job missing timestamps: %+v", done)
	}

	// The job's release key answers queries.
	var qr queryResponse
	if status, body := getJSON(t, ts.URL+"/v1/query/US/CA?release="+done.Release+"&q=0.5", &qr); status != http.StatusOK {
		t.Fatalf("query of async release: status %d: %s", status, body)
	}
	if qr.Groups == 0 {
		t.Fatal("async release served an empty node")
	}
	// A sync repeat of the same request is now a cache hit.
	sync := releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 5}
	var rr releaseResponse
	if status, body := postJSON(t, ts.URL+"/v1/release", sync, &rr); status != http.StatusOK {
		t.Fatalf("sync repeat: status %d: %s", status, body)
	}
	if !rr.CacheHit || "r-"+strings.TrimPrefix(done.Release, "r-") != rr.Release {
		t.Fatalf("sync repeat: %+v vs job release %q", rr, done.Release)
	}

	if status, _ := getJSON(t, ts.URL+"/v1/jobs/j-doesnotexist", nil); status != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", status)
	}
}

// TestServeBudgetExhaustion: releases beyond the per-hierarchy epsilon
// bound get 429 with the machine-readable remaining budget; cache hits
// stay free.
func TestServeBudgetExhaustion(t *testing.T) {
	ts := newTestServer(t, engine.Options{MaxEpsilonPerHierarchy: 1.5})
	hr := uploadGroups(t, ts, "US", smallGroups())

	var first releaseResponse
	if status, body := postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 1}, &first); status != http.StatusOK {
		t.Fatalf("first release: status %d: %s", status, body)
	}
	// Identical request: cache hit, free, still 200.
	if status, body := postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 1}, nil); status != http.StatusOK {
		t.Fatalf("cache-hit release: status %d: %s", status, body)
	}
	// A distinct computation needing 1.0 with 0.5 left: 429.
	status, body := postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 2}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget release: status %d: %s", status, body)
	}
	var br budgetResponse
	if err := json.Unmarshal([]byte(body), &br); err != nil {
		t.Fatalf("parsing 429 body %q: %v", body, err)
	}
	if br.Hierarchy != hr.ID || br.RequestedEpsilon != 1 || br.MaxEpsilonPerHierarchy != 1.5 {
		t.Fatalf("429 body = %+v", br)
	}
	if br.RemainingEpsilon < 0.49 || br.RemainingEpsilon > 0.51 {
		t.Fatalf("remaining epsilon = %g, want 0.5", br.RemainingEpsilon)
	}
	// A request within the remaining budget still works.
	if status, body := postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 0.5, K: 50, Seed: 3}, nil); status != http.StatusOK {
		t.Fatalf("within-budget release: status %d: %s", status, body)
	}
}

// TestServeBodyStatuses: an overlong body is 413, not a generic parse
// error; a non-JSON Content-Type is 415; an absent Content-Type is
// accepted.
func TestServeBodyStatuses(t *testing.T) {
	srv, err := NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.maxBody = 256
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Valid JSON that outgrows the limit mid-value, so the decoder hits
	// the MaxBytesReader bound rather than a syntax error.
	big := []byte(`{"root":"` + strings.Repeat("a", 512) + `"}`)
	resp, err := http.Post(ts.URL+"/v1/hierarchy", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%s), want 413", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "error") {
		t.Fatalf("413 body has no error field: %s", body)
	}

	for _, url := range []string{ts.URL + "/v1/hierarchy", ts.URL + "/v1/release"} {
		resp, err := http.Post(url, "text/csv", strings.NewReader(`{"root":"US"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("%s with text/csv: status %d, want 415", url, resp.StatusCode)
		}
	}

	// No Content-Type at all: treated as JSON.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/hierarchy",
		strings.NewReader(`{"root":"US","groups":[{"path":["CA"],"size":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("missing Content-Type: status %d, want 200", resp2.StatusCode)
	}
}

// TestServeListReleasesWithoutStore: a memory-only server lists an
// empty durable set, not its LRU.
func TestServeListReleasesWithoutStore(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	hr := uploadGroups(t, ts, "US", smallGroups())
	if status, body := postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50}, nil); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}
	var artifacts []releaseListEntry
	if status, body := getJSON(t, ts.URL+"/v1/release", &artifacts); status != http.StatusOK {
		t.Fatalf("list: status %d: %s", status, body)
	}
	if len(artifacts) != 0 {
		t.Fatalf("memory-only server lists %d durable artifacts", len(artifacts))
	}
}

func TestServeHealthz(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	var out healthzResponse
	if status, body := getJSON(t, ts.URL+"/healthz", &out); status != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", status, body)
	}
	if out.Status != "ok" {
		t.Fatalf("healthz = %+v", out)
	}
	if len(out.Instance) != 8 {
		t.Fatalf("healthz instance %q, want an 8-hex engine id", out.Instance)
	}
}

// TestReleaseImportClosed keeps the artifact-import hole shut: a PUT
// of a valid sparse artifact to /v1/release/{id} is refused with 405,
// and the id stays unknown afterwards — no node admits a release it
// did not compute or read from its own store.
func TestReleaseImportClosed(t *testing.T) {
	src := newTestServer(t, engine.Options{})
	hr := uploadGroups(t, src, "US", smallGroups())
	var rel releaseResponse
	if status, body := postJSON(t, src.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 9}, &rel); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}
	artifact := getBody(t, src.URL+"/v1/release/"+rel.Release)
	if _, _, err := hcoc.ReadReleaseSparse(bytes.NewReader(artifact)); err != nil {
		t.Fatalf("source artifact does not decode: %v", err)
	}

	dst := newTestServer(t, engine.Options{})
	if status, body := putBytes(t, dst.URL+"/v1/release/"+rel.Release+"?hierarchy="+hr.ID, artifact); status != http.StatusMethodNotAllowed {
		t.Fatalf("PUT artifact: status %d, want 405: %s", status, body)
	}
	resp := get(t, dst.URL+"/v1/release/"+rel.Release, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after refused PUT: status %d, want 404", resp.StatusCode)
	}
}

// getBody fetches a URL and returns the raw body, failing on non-200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// putBytes PUTs a raw body and returns the status and response body.
func putBytes(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestServeBottomUp exercises the baseline algorithm through the API;
// the two algorithms must produce distinct cache entries.
func TestServeBottomUp(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	hr := uploadGroups(t, ts, "US", smallGroups())

	var td, bu releaseResponse
	if status, body := postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 3}, &td); status != http.StatusOK {
		t.Fatalf("topdown: status %d: %s", status, body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Algorithm: "bottomup", Epsilon: 1, K: 50, Seed: 3}, &bu); status != http.StatusOK {
		t.Fatalf("bottomup: status %d: %s", status, body)
	}
	if bu.CacheHit || bu.Release == td.Release {
		t.Fatal("bottomup release shared the topdown cache entry")
	}
}
