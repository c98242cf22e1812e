package gateway

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/httpx"
	"hcoc/internal/serve"
)

// rawClient neither adds Accept-Encoding nor decodes gzip, so a test
// sees exactly the bytes and headers a server sent.
var rawClient = &http.Client{Transport: &http.Transport{DisableCompression: true}, Timeout: 30 * time.Second}

// get sends one GET with the given headers and returns the answer with
// its body read.
func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	return send(t, http.MethodGet, url, hdr, nil)
}

// send sends one request with the given headers and body and returns
// the answer with its body read.
func send(t *testing.T, method, url string, hdr map[string]string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := rawClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// sameJSON fails unless a and b hold equal JSON documents.
func sameJSON(t *testing.T, what string, a, b []byte) {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatalf("%s: direct answer is not JSON: %v\n%s", what, err, a)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatalf("%s: gateway answer is not JSON: %v\n%s", what, err, b)
	}
	if !reflect.DeepEqual(va, vb) {
		t.Fatalf("%s: gateway JSON differs from direct\ndirect:  %s\ngateway: %s", what, a, b)
	}
}

// passthroughFixture is two backends on one s3stub bucket behind a
// gateway at R=2, holding two hierarchies with one release each; hier
// and release are the first pair. Every backend owns both hierarchies,
// and primary is the first owner of hier.
type passthroughFixture struct {
	c             *client.Client
	base, primary string
	hier          client.Hierarchy
	release       string
}

func newPassthroughFixture(t *testing.T) *passthroughFixture {
	t.Helper()
	ctx := context.Background()
	stub := newStub(t)
	gw, c, base := newGateway(t, 2, 1, newSharedBackend(t, stub), newSharedBackend(t, stub))
	f := &passthroughFixture{c: c, base: base}
	other := append(testGroups(), hcoc.Group{Path: []string{"OR"}, Size: 5})
	for i, groups := range [][]hcoc.Group{testGroups(), other} {
		h, err := c.UploadHierarchy(ctx, "US", groups)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			f.hier, f.release = h, rel.Release
		}
	}
	f.primary = gw.Cluster().Owners(hierarchyFP(f.hier.ID))[0]
	return f
}

// TestGatewayPinnedQuery: a version-pinned query (?hierarchy=&version=,
// no release) answers through the gateway exactly as it does on a
// backend, at a pinned version and at the head.
func TestGatewayPinnedQuery(t *testing.T) {
	f := newPassthroughFixture(t)
	for _, q := range []string{
		"hierarchy=" + f.hier.ID + "&version=1&q=0.5",
		"hierarchy=" + f.hier.ID + "&q=0.5&k=1",
	} {
		path := "/v1/query/US/CA?" + q
		direct, want := get(t, f.primary+path, nil)
		via, got := get(t, f.base+path, nil)
		if direct.StatusCode != http.StatusOK || via.StatusCode != http.StatusOK {
			t.Fatalf("%s: status direct %d, gateway %d (%s)", path, direct.StatusCode, via.StatusCode, got)
		}
		sameJSON(t, path, want, got)
	}
	// The pinned answer is the release's own answer.
	_, byRelease := get(t, f.base+"/v1/query/US/CA?release="+f.release+"&q=0.5", nil)
	_, pinned := get(t, f.base+"/v1/query/US/CA?hierarchy="+f.hier.ID+"&version=1&q=0.5", nil)
	sameJSON(t, "pinned against release", byRelease, pinned)
}

// TestGatewayListingFilter: the release listing's ?hierarchy= and
// ?version= filters reach every backend, so the merged listing holds
// only the named hierarchy's artifacts.
func TestGatewayListingFilter(t *testing.T) {
	f := newPassthroughFixture(t)
	for _, q := range []string{"?hierarchy=" + f.hier.ID, "?hierarchy=" + f.hier.ID + "&version=1"} {
		resp, body := get(t, f.base+"/v1/release"+q, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
		}
		var arts []client.ReleaseArtifact
		if err := json.Unmarshal(body, &arts); err != nil {
			t.Fatal(err)
		}
		if len(arts) != 1 || arts[0].Release != f.release || arts[0].Hierarchy != f.hier.ID {
			t.Fatalf("%s: listing = %+v, want only %s", q, arts, f.release)
		}
	}
	all, err := f.c.Releases(context.Background())
	if err != nil || len(all) != 2 {
		t.Fatalf("unfiltered listing = %+v, %v; want both releases", all, err)
	}
	// Every backend refuses an unknown hierarchy; the gateway relays the
	// refusal.
	resp, body := get(t, f.base+"/v1/release?hierarchy=h-nope", nil)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), `"not_found"`) {
		t.Fatalf("unknown hierarchy filter: %d %s", resp.StatusCode, body)
	}
}

// TestGatewayParity: every forwarded GET answers through the gateway
// with the status and JSON the owning backend gives directly, and
// artifact downloads keep the backend's conditional-download contract:
// validators, lengths, byte ranges, 304s and its encoding.
func TestGatewayParity(t *testing.T) {
	f := newPassthroughFixture(t)
	for _, path := range []string{
		"/v1/query/US/CA?release=" + f.release + "&q=0.5&k=1&topcode=4",
		"/v1/query/US/CA?hierarchy=" + f.hier.ID + "&version=1&q=0.5",
		"/v1/hierarchy/" + f.hier.ID + "/versions",
		"/v1/budget/" + f.hier.ID,
		"/v1/release?hierarchy=" + f.hier.ID,
		"/v1/release/" + f.release,
		"/v1/release/" + f.release + "?format=dense",
	} {
		direct, want := get(t, f.primary+path, nil)
		via, got := get(t, f.base+path, nil)
		if direct.StatusCode != http.StatusOK || via.StatusCode != direct.StatusCode {
			t.Fatalf("%s: status direct %d, gateway %d", path, direct.StatusCode, via.StatusCode)
		}
		if ce := via.Header.Get("Content-Encoding"); ce != "" {
			t.Fatalf("%s: gateway answered %q to a request without Accept-Encoding", path, ce)
		}
		sameJSON(t, path, want, got)
	}

	var versions struct {
		Root string `json:"root"`
	}
	_, body := get(t, f.base+"/v1/hierarchy/"+f.hier.ID+"/versions", nil)
	if err := json.Unmarshal(body, &versions); err != nil || versions.Root != "US" {
		t.Fatalf("versions through the gateway lost root: %s", body)
	}

	for _, path := range []string{"/v1/release/" + f.release, "/v1/release/" + f.release + "?format=dense"} {
		direct, want := get(t, f.primary+path, nil)
		via, got := get(t, f.base+path, nil)
		for _, h := range []string{"ETag", "Last-Modified", "Accept-Ranges", "Content-Length"} {
			if direct.Header.Get(h) != via.Header.Get(h) {
				t.Fatalf("%s: %s direct %q, gateway %q", path, h, direct.Header.Get(h), via.Header.Get(h))
			}
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: gateway artifact bytes differ from direct", path)
		}

		ranged, part := get(t, f.base+path, map[string]string{"Range": "bytes=0-9"})
		if ranged.StatusCode != http.StatusPartialContent || !bytes.Equal(part, want[:10]) {
			t.Fatalf("%s: Range bytes=0-9 through the gateway = %d with %d bytes, want 206 with the first 10", path, ranged.StatusCode, len(part))
		}
		cond, rest := get(t, f.base+path, map[string]string{"If-None-Match": direct.Header.Get("ETag")})
		if cond.StatusCode != http.StatusNotModified || len(rest) != 0 {
			t.Fatalf("%s: If-None-Match through the gateway = %d with %d bytes, want 304", path, cond.StatusCode, len(rest))
		}
	}

	// With Accept-Encoding: gzip, an answer under 1 KiB crosses as
	// identity, varying on Accept-Encoding, from both.
	gz := map[string]string{"Accept-Encoding": "gzip", "Content-Type": "application/json"}
	path := "/v1/query/US/CA?release=" + f.release + "&q=0.5"
	direct, want := get(t, f.primary+path, gz)
	via, got := get(t, f.base+path, gz)
	for _, resp := range []*http.Response{direct, via} {
		if resp.Header.Get("Content-Encoding") != "" || resp.Header.Get("Vary") != "Accept-Encoding" {
			t.Fatalf("small answer: Content-Encoding %q, Vary %q; want identity varying on Accept-Encoding",
				resp.Header.Get("Content-Encoding"), resp.Header.Get("Vary"))
		}
	}
	if !bytes.Equal(want, got) {
		t.Fatal("gateway bytes of a small answer differ from the backend's")
	}

	// A 16-entry batch answers more than 1 KiB: the backend's gzip bytes
	// reach the client unopened.
	entry := `{"node":"US/CA","q":[0.5,0.9],"k":[1],"topcode":4}`
	batch := []byte(`{"release":"` + f.release + `","queries":[` + strings.TrimSuffix(strings.Repeat(entry+",", 16), ",") + `]}`)
	direct, want = send(t, http.MethodPost, f.primary+"/v1/query/batch", gz, batch)
	via, got = send(t, http.MethodPost, f.base+"/v1/query/batch", gz, batch)
	if direct.Header.Get("Content-Encoding") != "gzip" || via.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding direct %q, gateway %q; want gzip from both",
			direct.Header.Get("Content-Encoding"), via.Header.Get("Content-Encoding"))
	}
	if !bytes.Equal(want, got) {
		t.Fatal("gateway gzip bytes differ from the backend's")
	}
	zr, err := gzip.NewReader(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	_, identity := send(t, http.MethodPost, f.base+"/v1/query/batch", map[string]string{"Content-Type": "application/json"}, batch)
	if len(plain) < 1<<10 {
		t.Fatalf("16-entry batch answered %d bytes, want at least 1 KiB", len(plain))
	}
	sameJSON(t, "gunzipped answer", identity, plain)
}

// TestGatewayFailoverStatuses pins the failover rule on the status
// line: a 503 moves on to the next replica at once, with no retry of
// the same backend and no ejection, and when every replica refuses,
// the last refusal reaches the client verbatim, Retry-After included.
func TestGatewayFailoverStatuses(t *testing.T) {
	ctx := context.Background()
	srv, err := serve.NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two listeners over one engine; the one the gateway tries first
	// (live backends go in URL order) answers 503 to everything.
	var busyURL atomic.Value
	var busyHits atomic.Int64
	urls := make([]string, 2)
	servers := make([]*httptest.Server, 2)
	for i := range servers {
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if busyURL.Load() == "http://"+r.Host {
				busyHits.Add(1)
				w.Header().Set("Retry-After", "7")
				httpx.WriteError(w, http.StatusServiceUnavailable, "busy")
				return
			}
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	sort.Strings(urls)
	busyURL.Store(urls[0])
	good := servers[0]
	if good.URL == urls[0] {
		good = servers[1]
	}

	gw, err := New(Options{Backends: urls, Replication: 2, FailThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)
	direct, err := client.New(good.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	h, err := direct.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := direct.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	// The gateway never learned this release, so it walks the live
	// backends in URL order: the busy one first, once per query.
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Query(ctx, rel.Release, "US/CA", client.QueryParams{}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if n := busyHits.Load(); n != 4 {
		t.Fatalf("busy backend saw %d attempts for 4 queries, want exactly one each", n)
	}
	if live := gw.Cluster().Live(); len(live) != 2 {
		t.Fatalf("a 503 ejected a backend: live = %v", live)
	}

	good.Close()
	resp, body := get(t, ts.URL+"/v1/query/US/CA?release="+rel.Release, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "7" ||
		!strings.Contains(string(body), `"busy"`) {
		t.Fatalf("all replicas refusing = %d (Retry-After %q) %s; want the busy backend's 503 verbatim",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
}
