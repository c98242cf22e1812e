package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/httpx"
)

// releaseSmall uploads smallGroups and runs one seeded release,
// returning the hierarchy and release ids.
func releaseSmall(t *testing.T, ts *httptest.Server) (string, string) {
	t.Helper()
	hr := uploadGroups(t, ts, "US", smallGroups())
	var rr client.Release
	req := client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 7}
	if status, body := postJSON(t, ts.URL+"/v1/release", req, &rr); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}
	return hr.ID, rr.Release
}

// TestServeBatchQuery pins the batch endpoint to the single-query
// endpoint: same nodes, same parameters, same answers — with per-query
// errors that do not fail the batch.
func TestServeBatchQuery(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	_, release := releaseSmall(t, ts)

	reqBody := plainBatch(release)
	var resp batchQueryResponse
	if status, body := postJSON(t, ts.URL+"/v1/query/batch", reqBody, &resp); status != http.StatusOK {
		t.Fatalf("batch query: status %d: %s", status, body)
	}
	if len(resp.Results) != len(reqBody.Queries) {
		t.Fatalf("got %d results for %d queries", len(resp.Results), len(reqBody.Queries))
	}

	// Items 0 and 1 must match the single-query endpoint bit for bit.
	var single client.NodeReport
	url := fmt.Sprintf("%s/v1/query/US?release=%s&q=0.5&q=0.9&topcode=4", ts.URL, release)
	if status, body := getJSON(t, url, &single); status != http.StatusOK {
		t.Fatalf("single query: status %d: %s", status, body)
	}
	got, want := mustJSON(t, resp.Results[0].NodeReport), mustJSON(t, single)
	if got != want {
		t.Fatalf("batch item 0 = %s\nsingle query = %s", got, want)
	}
	if resp.Results[1].Node != "US/CA" || len(resp.Results[1].KthLargest) != 1 {
		t.Fatalf("batch item 1: %+v", resp.Results[1])
	}

	// Per-query failures are errors on their item only.
	if resp.Results[2].Error == "" || !strings.Contains(resp.Results[2].Error, "US/XX") {
		t.Fatalf("unknown node error: %q", resp.Results[2].Error)
	}
	if resp.Results[3].Error == "" || !strings.Contains(resp.Results[3].Error, "quantile") {
		t.Fatalf("bad quantile error: %q", resp.Results[3].Error)
	}
	if resp.Results[4].Error == "" || !strings.Contains(resp.Results[4].Error, "cap") {
		t.Fatalf("bad topcode error: %q", resp.Results[4].Error)
	}

	// Whole-batch failures.
	if status, _ := postJSON(t, ts.URL+"/v1/query/batch", batchQueryRequest{Release: "r-nope", Queries: reqBody.Queries}, nil); status != http.StatusNotFound {
		t.Fatalf("unknown release: status %d, want 404", status)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/query/batch", batchQueryRequest{Release: release}, nil); status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/query/batch", batchQueryRequest{Queries: reqBody.Queries}, nil); status != http.StatusBadRequest {
		t.Fatalf("missing release: status %d, want 400", status)
	}
	big := batchQueryRequest{Release: release, Queries: make([]client.NodeQuery, maxBatchQueries+1)}
	if status, _ := postJSON(t, ts.URL+"/v1/query/batch", big, nil); status != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", status)
	}
	// Top-coded cells sum over the batch and over every release an entry
	// reports on; a batch over the bound is refused before any lookup.
	wide := batchQueryRequest{Release: release, Queries: make([]client.NodeQuery, 16)}
	for i := range wide.Queries {
		wide.Queries[i] = client.NodeQuery{Node: "US", TopCode: maxTopCodedCells / 16}
	}
	if status, body := postJSON(t, ts.URL+"/v1/query/batch", wide, nil); status != http.StatusBadRequest || !strings.Contains(body, "top-coded") {
		t.Fatalf("16 wide top-coded tables: status %d (%s), want 400", status, body)
	}
	series := batchQueryRequest{Queries: []client.NodeQuery{
		{Op: "series", Releases: []string{release, release}, Node: "US", TopCode: maxTopCodedCells / 2},
	}}
	if status, body := postJSON(t, ts.URL+"/v1/query/batch", series, nil); status != http.StatusBadRequest || !strings.Contains(body, "top-coded") {
		t.Fatalf("series of two wide top-coded tables: status %d (%s), want 400", status, body)
	}
	// Rank statistics (q and k values) sum the same way.
	ranked := rankBatch(release, maxBatchQueries)
	ranked.Queries[0].KthLargest = []int64{1}
	if status, body := postJSON(t, ts.URL+"/v1/query/batch", ranked, nil); status != http.StatusBadRequest || !strings.Contains(body, "rank statistics") {
		t.Fatalf("%d rank statistics: status %d (%s), want 400", 2*maxBatchQueries+1, status, body)
	}
	seriesRanks := batchQueryRequest{Queries: []client.NodeQuery{
		{Op: "series", Releases: []string{release, release}, Node: "US", Quantiles: make([]float64, maxRankStats/2+1)},
	}}
	if status, body := postJSON(t, ts.URL+"/v1/query/batch", seriesRanks, nil); status != http.StatusBadRequest || !strings.Contains(body, "rank statistics") {
		t.Fatalf("series of two reports over the rank bound: status %d (%s), want 400", status, body)
	}

	// Batch attempts count once per call however many queries they
	// carry: the successful 4-query batch plus the unknown-release one.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	metrics, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(metrics), "hcoc_batch_queries_total 2") {
		t.Fatalf("metrics missing batch counter:\n%s", metrics)
	}

	// A full batch at the rank bound is answered.
	var full batchQueryResponse
	if status, body := postJSON(t, ts.URL+"/v1/query/batch", rankBatch(release, maxBatchQueries), &full); status != http.StatusOK || len(full.Results) != maxBatchQueries {
		t.Fatalf("batch at the rank bound: status %d, %d results: %.200s", status, len(full.Results), body)
	}
}

// rankBatch is n plain entries of two quantiles each.
func rankBatch(release string, n int) batchQueryRequest {
	req := batchQueryRequest{Release: release, Queries: make([]client.NodeQuery, n)}
	for i := range req.Queries {
		req.Queries[i] = client.NodeQuery{Node: "US", Quantiles: []float64{0.5, 0.9}}
	}
	return req
}

// plainBatch is a plain single-release batch: two answerable entries
// and three that fail on their own item.
func plainBatch(release string) batchQueryRequest {
	return batchQueryRequest{
		Release: release,
		Queries: []client.NodeQuery{
			{Node: "US", Quantiles: []float64{0.5, 0.9}, TopCode: 4},
			{Node: "US/CA", KthLargest: []int64{1}},
			{Node: "US/XX"},                          // unknown node
			{Node: "US/WA", Quantiles: []float64{7}}, // bad quantile
			{Node: "US/WA", TopCode: -3},             // bad topcode
		},
	}
}

// TestServeQueryOnePath pins the wire contract of the one node-query
// path: GET /v1/query/{node}, a plain batch entry and an extended
// "stats" entry lower to the same planner query, so they answer alike.
func TestServeQueryOnePath(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	_, release := releaseSmall(t, ts)
	const params = "q=0.5&q=0.9&k=1&topcode=4"
	entry := func(node string) client.NodeQuery {
		return client.NodeQuery{Node: node, Quantiles: []float64{0.5, 0.9}, KthLargest: []int64{1}, TopCode: 4}
	}
	// ask sends the same node query to release down all three routes:
	// GET, a plain batch and an extended batch.
	ask := func(rel, node string) (getStatus int, get string, plainStatus int, plain, extended batchQueryResponse) {
		getStatus, get = getJSON(t, fmt.Sprintf("%s/v1/query/%s?release=%s&%s", ts.URL, node, rel, params), nil)
		plainStatus, _ = postJSON(t, ts.URL+"/v1/query/batch",
			batchQueryRequest{Release: rel, Queries: []client.NodeQuery{entry(node)}}, &plain)
		stats := entry(node)
		stats.Op, stats.Releases = "stats", []string{rel}
		if status, body := postJSON(t, ts.URL+"/v1/query/batch",
			batchQueryRequest{Queries: []client.NodeQuery{stats}}, &extended); status != http.StatusOK || len(extended.Results) != 1 {
			t.Fatalf("extended batch for %s on %s: status %d: %s", node, rel, status, body)
		}
		return getStatus, get, plainStatus, plain, extended
	}

	// A known node: three JSON-equal reports.
	getStatus, get, plainStatus, plain, extended := ask(release, "US/CA")
	if getStatus != http.StatusOK || plainStatus != http.StatusOK {
		t.Fatalf("known node: GET %d (%s), plain batch %d", getStatus, get, plainStatus)
	}
	var single client.NodeReport
	if err := json.Unmarshal([]byte(get), &single); err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, single)
	for name, item := range map[string]client.NodeResult{"plain": plain.Results[0], "extended": extended.Results[0]} {
		if got := mustJSON(t, item.NodeReport); item.Error != "" || got != want {
			t.Fatalf("%s batch item = %s (error %q)\nGET = %s", name, got, item.Error, want)
		}
	}

	// An unknown node: the planner's error text on every route.
	getStatus, get, plainStatus, plain, extended = ask(release, "US/XX")
	var getErr struct{ Error, Code string }
	if err := json.Unmarshal([]byte(get), &getErr); err != nil || getStatus != http.StatusBadRequest {
		t.Fatalf("unknown node: GET %d: %s", getStatus, get)
	}
	wantErr := fmt.Sprintf("plan: release %q has no node %q", releaseID(release), "US/XX")
	if plainStatus != http.StatusOK || getErr.Error != wantErr ||
		plain.Results[0].Error != wantErr || extended.Results[0].Error != wantErr {
		t.Fatalf("unknown node errors: GET %q, plain %d %q, extended %q; want %q",
			getErr.Error, plainStatus, plain.Results[0].Error, extended.Results[0].Error, wantErr)
	}

	// An unknown release: 404 on GET and on the plain batch, a per-item
	// error in the extended batch.
	getStatus, _, plainStatus, _, extended = ask("r-nope", "US/CA")
	if getStatus != http.StatusNotFound || plainStatus != http.StatusNotFound ||
		!strings.Contains(extended.Results[0].Error, "not cached") {
		t.Fatalf("unknown release: GET %d, plain batch %d, extended item %q", getStatus, plainStatus, extended.Results[0].Error)
	}

	// No node at all is malformed before any release is read: GET
	// answers 400, a plain batch 200 with per-item errors.
	if status, body := getJSON(t, ts.URL+"/v1/query/?release=r-nope", nil); status != http.StatusBadRequest {
		t.Fatalf("empty node GET on an unknown release: status %d (%s), want 400", status, body)
	}
	var empty batchQueryResponse
	status, body := postJSON(t, ts.URL+"/v1/query/batch",
		batchQueryRequest{Release: "r-nope", Queries: []client.NodeQuery{{}, {Quantiles: []float64{0.5}}}}, &empty)
	if status != http.StatusOK || len(empty.Results) != 2 || empty.Results[0].Error == "" || empty.Results[1].Error == "" {
		t.Fatalf("empty-node plain batch on an unknown release: status %d: %s", status, body)
	}
}

// TestServeBudgetEndpoint walks a hierarchy's budget through spend and
// refusal: fresh upload shows the full bound, a release moves spend,
// and the 429 refusal leaves the reported remainder consistent.
func TestServeBudgetEndpoint(t *testing.T) {
	ts := newTestServer(t, engine.Options{MaxEpsilonPerHierarchy: 1.5})
	hr := uploadGroups(t, ts, "US", smallGroups())

	var bs client.Budget
	if status, body := getJSON(t, ts.URL+"/v1/budget/"+hr.ID, &bs); status != http.StatusOK {
		t.Fatalf("budget: status %d: %s", status, body)
	}
	if !bs.Enforced || bs.SpentEpsilon != 0 || bs.RemainingEpsilon != 1.5 || bs.MaxEpsilonPerHierarchy != 1.5 {
		t.Fatalf("fresh budget: %+v", bs)
	}

	req := client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 7}
	if status, body := postJSON(t, ts.URL+"/v1/release", req, nil); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}
	if _, _ = getJSON(t, ts.URL+"/v1/budget/"+hr.ID, &bs); bs.SpentEpsilon != 1 || bs.RemainingEpsilon != 0.5 {
		t.Fatalf("after release: %+v", bs)
	}

	// A refusal keeps the ledger; its body and the budget endpoint agree.
	req.Seed = 8
	status, body := postJSON(t, ts.URL+"/v1/release", req, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget release: status %d: %s", status, body)
	}
	var refusal budgetResponse
	if err := json.Unmarshal([]byte(body), &refusal); err != nil {
		t.Fatal(err)
	}
	if refusal.RemainingEpsilon != 0.5 {
		t.Fatalf("refusal remaining = %g, want 0.5", refusal.RemainingEpsilon)
	}
	if _, _ = getJSON(t, ts.URL+"/v1/budget/"+hr.ID, &bs); bs.SpentEpsilon != 1 || bs.RemainingEpsilon != 0.5 {
		t.Fatalf("after refusal: %+v", bs)
	}

	if status, _ := getJSON(t, ts.URL+"/v1/budget/h-doesnotexist", nil); status != http.StatusNotFound {
		t.Fatalf("unknown hierarchy: status %d, want 404", status)
	}
}

// TestServeBudgetUnenforced: without -max-epsilon-per-hierarchy the
// endpoint still reports spend, with enforced=false.
func TestServeBudgetUnenforced(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	hr := uploadGroups(t, ts, "US", smallGroups())
	req := client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 2, K: 50, Seed: 7}
	if status, body := postJSON(t, ts.URL+"/v1/release", req, nil); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}
	var bs client.Budget
	if _, _ = getJSON(t, ts.URL+"/v1/budget/"+hr.ID, &bs); bs.Enforced || bs.SpentEpsilon != 2 {
		t.Fatalf("unenforced budget: %+v", bs)
	}
}

// TestServeGzip exercises the transport in both directions: a
// gzip-compressed upload body, a gzip-compressed response, a malformed
// gzip stream, and an unsupported Content-Encoding.
func TestServeGzip(t *testing.T) {
	ts := newTestServer(t, engine.Options{})

	recs := make([]client.EventGroup, 0, len(smallGroups()))
	for _, g := range smallGroups() {
		recs = append(recs, client.EventGroup{Path: g.Path, Size: g.Size})
	}
	raw, err := json.Marshal(hierarchyRequest{Root: "US", Groups: recs})
	if err != nil {
		t.Fatal(err)
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	// Compressed upload.
	req, err := http.NewRequest("POST", ts.URL+"/v1/hierarchy", bytes.NewReader(zipped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var hr client.Hierarchy
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzip upload: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}

	// The plain upload of the same groups must be idempotent with it.
	plain := uploadGroups(t, ts, "US", smallGroups())
	if plain.ID != hr.ID {
		t.Fatalf("gzip upload id %q != plain upload id %q", hr.ID, plain.ID)
	}

	// Response encoding: ask for gzip explicitly (the default transport
	// would transparently decompress; do it by hand to see the header).
	// The one-entry listing is under httpx.GzipMinSize, so it is identity.
	req, err = http.NewRequest("GET", ts.URL+"/v1/hierarchy", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Encoding"); got != "" || resp.Header.Get("Vary") != "Accept-Encoding" {
		t.Fatalf("small listing: Content-Encoding %q, Vary %q; want identity varying on Accept-Encoding", got, resp.Header.Get("Vary"))
	}
	var listed []client.Hierarchy
	if err := json.Unmarshal(body, &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].ID != hr.ID {
		t.Fatalf("listed hierarchies: %+v", listed)
	}

	// A 16-entry batch answers more than httpx.GzipMinSize bytes: gzip.
	_, release := releaseSmall(t, ts)
	raw16, err := json.Marshal(batchOf(release, 16))
	if err != nil {
		t.Fatal(err)
	}
	req, err = http.NewRequest("POST", ts.URL+"/v1/query/batch", bytes.NewReader(raw16))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("16-entry batch: Content-Encoding = %q, want gzip", got)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var batch batchQueryResponse
	if err := json.Unmarshal(unzipped, &batch); err != nil {
		t.Fatal(err)
	}
	if len(unzipped) < httpx.GzipMinSize || len(batch.Results) != 16 {
		t.Fatalf("gzip batch: %d bytes, %d results", len(unzipped), len(batch.Results))
	}

	// Malformed gzip body is a 400, not a hang or a 500.
	req, err = http.NewRequest("POST", ts.URL+"/v1/hierarchy", strings.NewReader("not gzip at all"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed gzip: status %d, want 400", resp.StatusCode)
	}

	// An encoding the server does not speak is a 415.
	req, err = http.NewRequest("POST", ts.URL+"/v1/hierarchy", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "br")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("br encoding: status %d, want 415", resp.StatusCode)
	}
}

// batchOf is a plain batch of n identical node queries of release.
func batchOf(release string, n int) batchQueryRequest {
	req := batchQueryRequest{Release: release}
	for i := 0; i < n; i++ {
		req.Queries = append(req.Queries, client.NodeQuery{Node: "US/CA", Quantiles: []float64{0.5, 0.9}, KthLargest: []int64{1}, TopCode: 4})
	}
	return req
}

// TestCompressThreshold pins response compression through
// Server.ServeHTTP: with Accept-Encoding: gzip, a body under
// httpx.GzipMinSize goes out as identity and one of httpx.GzipMinSize or more as
// gzip, each with the status and body the same request gets without
// it, and each varying on Accept-Encoding.
func TestCompressThreshold(t *testing.T) {
	srv, err := NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	_, release := releaseSmall(t, ts)
	raw16, err := json.Marshal(batchOf(release, 16))
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, target string, body []byte, gz bool) *httptest.ResponseRecorder {
		r := httptest.NewRequest(method, target, bytes.NewReader(body))
		if body != nil {
			r.Header.Set("Content-Type", "application/json")
		}
		if gz {
			r.Header.Set("Accept-Encoding", "gzip")
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		return w
	}
	gunzip := func(t *testing.T, b []byte) []byte {
		t.Helper()
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		return plain
	}
	for _, tc := range []struct {
		name, method, target string
		body                 []byte
		status               int
		gzipped              bool
	}{
		{"small answer", "GET", "/v1/query/US?release=" + release + "&q=0.5", nil, http.StatusOK, false},
		{"large answer", "POST", "/v1/query/batch", raw16, http.StatusOK, true},
		{"small 404", "GET", "/v1/query/US?release=r-nosuch", nil, http.StatusNotFound, false},
		{"small HEAD", "HEAD", "/v1/query/US?release=" + release + "&q=0.5", nil, http.StatusOK, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := serve(tc.method, tc.target, tc.body, false)
			got := serve(tc.method, tc.target, tc.body, true)
			if want.Code != tc.status || got.Code != tc.status {
				t.Fatalf("status %d without gzip, %d with; want %d", want.Code, got.Code, tc.status)
			}
			if got.Header().Get("Vary") != "Accept-Encoding" {
				t.Fatalf("Vary = %q, want Accept-Encoding", got.Header().Get("Vary"))
			}
			body := got.Body.Bytes()
			if ce := got.Header().Get("Content-Encoding"); (ce == "gzip") != tc.gzipped {
				t.Fatalf("Content-Encoding = %q for a %d-byte body; gzip wanted: %v", ce, want.Body.Len(), tc.gzipped)
			}
			if tc.gzipped {
				body = gunzip(t, body)
			}
			if !bytes.Equal(body, want.Body.Bytes()) || (len(body) >= httpx.GzipMinSize) != tc.gzipped {
				t.Fatalf("body (%d bytes) differs from the identity answer (%d bytes)", len(body), want.Body.Len())
			}
		})
	}

	// Compressed answers served at once each get their own compressor.
	want := serve("POST", "/v1/query/batch", raw16, false).Body.Bytes()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r := httptest.NewRequest("POST", "/v1/query/batch", bytes.NewReader(raw16))
				r.Header.Set("Content-Type", "application/json")
				r.Header.Set("Accept-Encoding", "gzip")
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, r)
				zr, err := gzip.NewReader(w.Body)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := io.ReadAll(zr); err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent gzip answer differs from the identity one (%v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// /metrics is written in many small chunks; together they cross the
	// threshold, and the compressed stream holds all of them.
	w := serve("GET", "/metrics", nil, true)
	if w.Code != http.StatusOK || w.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("/metrics: status %d, Content-Encoding %q; want 200 gzip", w.Code, w.Header().Get("Content-Encoding"))
	}
	if text := gunzip(t, w.Body.Bytes()); len(text) < httpx.GzipMinSize || !bytes.Contains(text, []byte("hcoc_cache_hits_total")) {
		t.Fatalf("/metrics decompressed to %d bytes without its counters", len(text))
	}

	// HEAD on a large answer carries gzip headers and no body.
	resp, err := http.DefaultClient.Do(func() *http.Request {
		r, _ := http.NewRequest("HEAD", ts.URL+"/metrics", nil)
		r.Header.Set("Accept-Encoding", "gzip")
		return r
	}())
	if err != nil {
		t.Fatal(err)
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" || n != 0 {
		t.Fatalf("HEAD /metrics: status %d, Content-Encoding %q, %d body bytes", resp.StatusCode, resp.Header.Get("Content-Encoding"), n)
	}
}

// mustJSON marshals v for structural comparison.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
