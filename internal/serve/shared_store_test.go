package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/store"
	"hcoc/internal/store/s3stub"
)

// listCounter is an http.RoundTripper that counts the ListObjectsV2
// requests an S3 backend sends: the manifest refreshes.
type listCounter struct {
	lists atomic.Int64
}

func (c *listCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && r.URL.Query().Has("list-type") {
		c.lists.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// s3Server starts a server whose store is the stub bucket behind
// endpoint, with the store's S3 requests sent through c.
func s3Server(t *testing.T, endpoint string, c *listCounter) (*httptest.Server, *engine.Engine) {
	t.Helper()
	b, err := store.NewS3(store.S3Options{Endpoint: endpoint, Bucket: "hcoc", Client: &http.Client{Transport: c}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng := engine.New(engine.Options{Store: st})
	srv, err := NewServer(eng, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, eng
}

// TestServeSharedStoreUnknownRelease: on a shared store, a query and a
// download of a release no node has stored answer 404 without reading
// the manifest: the artifact's absence settles the miss.
func TestServeSharedStoreUnknownRelease(t *testing.T) {
	stub := httptest.NewServer(s3stub.New("hcoc"))
	defer stub.Close()
	var c listCounter
	ts, _ := s3Server(t, stub.URL, &c)
	hr := uploadGroups(t, ts, "US", smallGroups())
	var rr client.Release
	if status, body := postJSON(t, ts.URL+"/v1/release", client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 7}, &rr); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}
	unknown := "r-" + strings.Repeat("0", len(rr.Release)-2)
	for _, target := range []string{
		"/v1/query/US/CA?release=" + unknown + "&q=0.5",
		"/v1/release/" + unknown,
	} {
		c.lists.Store(0)
		if status, body := getJSON(t, ts.URL+target, nil); status != http.StatusNotFound {
			t.Errorf("GET %s: status %d: %s, want 404", target, status, body)
		}
		if n := c.lists.Load(); n != 0 {
			t.Errorf("GET %s made %d LISTs, want 0", target, n)
		}
	}
}

// TestServeSharedStorePeerRelease: a second node on the bucket, booted
// before the first computed a release, answers the identical request
// as a store hit and draws no budget of its own.
func TestServeSharedStorePeerRelease(t *testing.T) {
	stub := httptest.NewServer(s3stub.New("hcoc"))
	defer stub.Close()
	var ca, cb listCounter
	a, _ := s3Server(t, stub.URL, &ca)
	hr := uploadGroups(t, a, "US", smallGroups())
	b, engB := s3Server(t, stub.URL, &cb) // replays the hierarchy, no release
	req := client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 7}
	var first, again client.Release
	if status, body := postJSON(t, a.URL+"/v1/release", req, &first); status != http.StatusOK {
		t.Fatalf("release on the first node: status %d: %s", status, body)
	}
	if status, body := postJSON(t, b.URL+"/v1/release", req, &again); status != http.StatusOK {
		t.Fatalf("release on the second node: status %d: %s", status, body)
	}
	if !again.StoreHit || again.CacheHit || again.Release != first.Release {
		t.Fatalf("second node answered %+v, want a store hit of %s", again, first.Release)
	}
	if m := engB.Metrics(); m.Releases != 0 || m.EpsilonSpentLocal != 0 {
		t.Fatalf("second node: %d releases, local epsilon %g, want none", m.Releases, m.EpsilonSpentLocal)
	}
}
