package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hcoc"
	"hcoc/internal/store/s3stub"
)

// s3Counts tallies the requests and TCP dials an S3 backend makes;
// order names the requests in the order they were sent.
type s3Counts struct {
	lists, gets, heads, puts, dials int
	order                           []string
}

// requestCounter is an http.RoundTripper that counts S3 requests by
// kind, over a transport that counts its dials.
type requestCounter struct {
	tr *http.Transport

	mu sync.Mutex
	n  s3Counts
	// headStatus, when nonzero, answers the next HEAD with that status
	// without sending it.
	headStatus int
}

func newRequestCounter() *requestCounter {
	c := &requestCounter{}
	var d net.Dialer
	c.tr = &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c.mu.Lock()
		c.n.dials++
		c.mu.Unlock()
		return d.DialContext(ctx, network, addr)
	}}
	return c
}

func (c *requestCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	kind := r.Method
	switch {
	case r.Method == http.MethodGet && r.URL.Query().Has("list-type"):
		c.n.lists++
		kind = "LIST"
	case r.Method == http.MethodGet:
		c.n.gets++
	case r.Method == http.MethodHead:
		c.n.heads++
	case r.Method == http.MethodPut:
		c.n.puts++
	}
	c.n.order = append(c.n.order, kind)
	status := 0
	if r.Method == http.MethodHead {
		status, c.headStatus = c.headStatus, 0
	}
	c.mu.Unlock()
	if status != 0 {
		return &http.Response{
			Status: fmt.Sprintf("%d %s", status, http.StatusText(status)), StatusCode: status,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: make(http.Header), Body: http.NoBody, Request: r,
		}, nil
	}
	return c.tr.RoundTrip(r)
}

// failNextHead makes the next HEAD answer status.
func (c *requestCounter) failNextHead(status int) {
	c.mu.Lock()
	c.headStatus = status
	c.mu.Unlock()
}

// take returns the counts so far and resets them.
func (c *requestCounter) take() s3Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = s3Counts{}
	return n
}

func (c *requestCounter) requests() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n.lists + c.n.gets + c.n.heads + c.n.puts
}

// manifestStore opens a Store over the stub's bucket; a non-nil
// counter sees every request the backend makes.
func manifestStore(tb testing.TB, url string, pageSize int, counter *requestCounter) *Store {
	tb.Helper()
	opts := S3Options{Endpoint: url, Bucket: "hcoc-test", Prefix: "m", ListPageSize: pageSize}
	if counter != nil {
		opts.Client = &http.Client{Transport: counter}
	}
	b, err := NewS3(opts)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := OpenBackend(b)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// appendCharges appends n charges of epsilon 1 against fp, one manifest
// chunk each.
func appendCharges(tb testing.TB, s *Store, fp string, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		if err := s.AppendCharge(meta(fmt.Sprintf("k%d", i), fp, 1)); err != nil {
			tb.Fatal(err)
		}
	}
}

// manifestChunks lists the manifest chunk keys in append order.
func manifestChunks(t *testing.T, s *Store) []string {
	t.Helper()
	infos, err := s.Blob().List("manifest/")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(infos))
	for i, info := range infos {
		keys[i] = info.Key
	}
	return keys
}

// refreshCounts refreshes s and returns the requests the refresh made.
func refreshCounts(t *testing.T, s *Store, c *requestCounter) s3Counts {
	t.Helper()
	c.take()
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	return c.take()
}

func wantSpent(t *testing.T, s *Store, fp string, want float64) {
	t.Helper()
	if got := s.EpsilonByHierarchy()[fp]; got != want {
		t.Fatalf("spent[%s] = %g, want %g", fp, got, want)
	}
}

// TestS3ManifestColdReadCost: a cold replay of N chunks costs one LIST
// per page and one GET per chunk, and no HEAD.
func TestS3ManifestColdReadCost(t *testing.T) {
	for _, tc := range []struct{ chunks, page int }{{0, 1000}, {7, 1000}, {7, 3}, {9, 3}} {
		t.Run(fmt.Sprintf("%d-chunks-page-%d", tc.chunks, tc.page), func(t *testing.T) {
			srv := httptest.NewServer(s3stub.New("hcoc-test"))
			defer srv.Close()
			writer := manifestStore(t, srv.URL, 0, nil)
			defer writer.Close()
			appendCharges(t, writer, "fp1", tc.chunks)

			c := newRequestCounter()
			s := manifestStore(t, srv.URL, tc.page, c)
			defer s.Close()
			wantLists := max(1, (tc.chunks+tc.page-1)/tc.page)
			if got := c.take(); got.lists != wantLists || got.gets != tc.chunks || got.heads != 0 {
				t.Fatalf("cold replay of %d chunks made %+v, want %d LISTs, %d GETs, no HEAD", tc.chunks, got, wantLists, tc.chunks)
			}
			wantSpent(t, s, "fp1", float64(tc.chunks))
		})
	}
}

// TestS3ManifestRefreshCost pins what a refresh costs once the handle
// holds the chunks it has seen: a LIST, plus a GET for each chunk that
// is new, changed or torn.
func TestS3ManifestRefreshCost(t *testing.T) {
	srv := httptest.NewServer(s3stub.New("hcoc-test"))
	defer srv.Close()
	writer := manifestStore(t, srv.URL, 0, nil)
	defer writer.Close()
	appendCharges(t, writer, "fp1", 5)

	c := newRequestCounter()
	s := manifestStore(t, srv.URL, 0, c)
	defer s.Close()

	if got := refreshCounts(t, s, c); got.lists != 1 || got.gets != 0 || got.heads != 0 {
		t.Fatalf("refresh with nothing new made %+v, want 1 LIST and nothing else", got)
	}

	t.Run("appended-elsewhere", func(t *testing.T) {
		appendCharges(t, writer, "fp2", 3)
		if got := refreshCounts(t, s, c); got.lists != 1 || got.gets != 3 || got.heads != 0 {
			t.Fatalf("refresh after 3 appends elsewhere made %+v, want 1 LIST and 3 GETs", got)
		}
		wantSpent(t, s, "fp2", 3)
		if got := refreshCounts(t, s, c); got.gets != 0 {
			t.Fatalf("second refresh made %d GETs, want 0", got.gets)
		}
	})

	t.Run("appended-here", func(t *testing.T) {
		appendCharges(t, s, "fp3", 2)
		if got := refreshCounts(t, s, c); got.lists != 1 || got.gets != 0 {
			t.Fatalf("refresh after this handle's own appends made %+v, want 1 LIST and no GET", got)
		}
		wantSpent(t, s, "fp3", 2)
	})

	t.Run("deleted", func(t *testing.T) {
		keys := manifestChunks(t, s)
		if err := writer.Blob().Delete(keys[0]); err != nil {
			t.Fatal(err)
		}
		if got := refreshCounts(t, s, c); got.lists != 1 || got.gets != 0 {
			t.Fatalf("refresh after a deletion made %+v, want 1 LIST and no GET", got)
		}
		wantSpent(t, s, "fp1", 4)
	})

	t.Run("changed", func(t *testing.T) {
		keys := manifestChunks(t, s)
		// Same size, new ETag: epsilon 1 becomes 2.
		same := `{"kind":"charge","key":"k0","hierarchy":"fp1","algorithm":"topdown","epsilon":2}` + "\n"
		longer := `{"kind":"charge","key":"k0","hierarchy":"fp1","algorithm":"topdown","epsilon":2.5}` + "\n"
		if err := writer.Blob().Put(keys[0], []byte(`{"kind":"charge","key":"k0","hierarchy":"fp1","algorithm":"topdown","epsilon":1}`+"\n")); err != nil {
			t.Fatal(err)
		}
		refreshCounts(t, s, c)
		for _, tc := range []struct {
			line  string
			spent float64
		}{{same, 5}, {longer, 5.5}} {
			if err := writer.Blob().Put(keys[0], []byte(tc.line)); err != nil {
				t.Fatal(err)
			}
			if got := refreshCounts(t, s, c); got.lists != 1 || got.gets != 1 {
				t.Fatalf("refresh after a chunk changed made %+v, want 1 LIST and 1 GET", got)
			}
			wantSpent(t, s, "fp1", tc.spent)
		}
	})

	t.Run("torn", func(t *testing.T) {
		before := s.EpsilonByHierarchy()
		torn := "manifest/99999999999999999999-ffff.jsonl"
		if err := writer.Blob().Put(torn, []byte(`{"kind":"charge","key":"k9","hier`)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if got := refreshCounts(t, s, c); got.lists != 1 || got.gets != 1 {
				t.Fatalf("refresh %d over a torn chunk made %+v, want 1 LIST and 1 GET", i, got)
			}
		}
		if after := s.EpsilonByHierarchy(); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("torn chunk changed the ledger: %v -> %v", before, after)
		}
		// Completing the chunk makes it count, and cacheable.
		if err := writer.Blob().Put(torn, []byte(`{"kind":"charge","key":"k9","hierarchy":"fp9","epsilon":1}`+"\n")); err != nil {
			t.Fatal(err)
		}
		if got := refreshCounts(t, s, c); got.gets != 1 {
			t.Fatalf("refresh after the torn chunk was completed made %d GETs, want 1", got.gets)
		}
		wantSpent(t, s, "fp9", 1)
		if got := refreshCounts(t, s, c); got.gets != 0 {
			t.Fatalf("refresh after a completed chunk was cached made %d GETs, want 0", got.gets)
		}
	})
}

// TestS3ManifestColdReadReusesConnection: a 200-chunk cold replay rides
// one keep-alive connection, which every response body left unclosed
// would break.
func TestS3ManifestColdReadReusesConnection(t *testing.T) {
	srv := httptest.NewServer(s3stub.New("hcoc-test"))
	defer srv.Close()
	writer := manifestStore(t, srv.URL, 0, nil)
	defer writer.Close()
	appendCharges(t, writer, "fp1", 200)

	c := newRequestCounter()
	s := manifestStore(t, srv.URL, 0, c)
	defer s.Close()
	if got := c.take(); got.gets != 200 || got.dials > 2 {
		t.Fatalf("cold replay of 200 chunks made %+v, want 200 GETs over at most 2 dials", got)
	}
	wantSpent(t, s, "fp1", 200)
}

// TestS3SharedMissCost pins what a shared-store miss costs over a
// 200-chunk manifest. A key with no artifact is one HEAD and never
// reads the manifest; only an artifact in the bucket — a peer's
// release, or one whose manifest line never landed — pays the LIST
// refresh, and only a manifest line makes it a hit. A HEAD that fails
// other than 404 proves nothing, so it refreshes too.
func TestS3SharedMissCost(t *testing.T) {
	srv := httptest.NewServer(s3stub.New("hcoc-test"))
	defer srv.Close()
	writer := manifestStore(t, srv.URL, 0, nil)
	defer writer.Close()
	appendCharges(t, writer, "fp1", 200)

	c := newRequestCounter()
	s := manifestStore(t, srv.URL, 0, c)
	defer s.Close()
	rel, _ := testRelease(t, 1)
	wantOrder := func(t *testing.T, op string, want ...string) {
		t.Helper()
		if got := c.take(); strings.Join(got.order, " ") != strings.Join(want, " ") {
			t.Fatalf("%s made %v, want %v", op, got.order, want)
		}
	}
	// peerPut has the writer charge and put key, two manifest chunks.
	peerPut := func(t *testing.T, key, fp string) {
		t.Helper()
		if err := writer.AppendCharge(meta(key, fp, 1)); err != nil {
			t.Fatal(err)
		}
		if err := writer.PutRelease(meta(key, fp, 1), rel); err != nil {
			t.Fatal(err)
		}
	}
	c.take()

	t.Run("no-artifact", func(t *testing.T) {
		if _, _, err := s.GetRelease("absent"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("GetRelease: %v, want ErrNotFound", err)
		}
		wantOrder(t, "GetRelease of a key with no artifact", "HEAD")
		if _, _, _, err := s.OpenRelease("absent"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("OpenRelease: %v, want ErrNotFound", err)
		}
		wantOrder(t, "OpenRelease of a key with no artifact", "HEAD")
	})

	t.Run("peer-put", func(t *testing.T) {
		peerPut(t, "peer", "fp2")
		got, m, err := s.GetRelease("peer")
		if err != nil {
			t.Fatal(err)
		}
		// The miss: HEAD, LIST, one GET per new chunk; then the
		// artifact read: HEAD, GET.
		wantOrder(t, "GetRelease of a peer's key", "HEAD", "LIST", "GET", "GET", "HEAD", "GET")
		if m.Key != "peer" || m.Epsilon != 1 {
			t.Fatalf("meta = %+v", m)
		}
		for path, h := range rel {
			if !h.Equal(got[path]) {
				t.Fatalf("peer's release differs at %q", path)
			}
		}
		wantSpent(t, s, "fp2", 1)
	})

	t.Run("artifact-without-line", func(t *testing.T) {
		var buf bytes.Buffer
		if err := hcoc.WriteReleaseSparse(&buf, rel, 1); err != nil {
			t.Fatal(err)
		}
		if err := writer.Blob().Put(releaseKey("orphan"), buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.GetRelease("orphan"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("GetRelease: %v, want ErrNotFound", err)
		}
		wantOrder(t, "GetRelease of an unindexed artifact", "HEAD", "LIST")
		if _, _, _, err := s.OpenRelease("orphan"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("OpenRelease: %v, want ErrNotFound", err)
		}
		wantOrder(t, "OpenRelease of an unindexed artifact", "HEAD", "LIST")
	})

	for _, status := range []int{http.StatusInternalServerError, http.StatusForbidden} {
		t.Run(fmt.Sprintf("head-%d", status), func(t *testing.T) {
			key := fmt.Sprintf("peer-%d", status)
			peerPut(t, key, key)
			c.take()
			c.failNextHead(status)
			if _, _, err := s.GetRelease(key); err != nil {
				t.Fatal(err)
			}
			wantOrder(t, fmt.Sprintf("GetRelease after a HEAD answered %d", status), "HEAD", "LIST", "GET", "GET", "HEAD", "GET")
			wantSpent(t, s, key, 1)
		})
	}
}

// BenchmarkManifestRefresh measures a manifest read over an in-process
// s3stub holding 200 chunks: cold is a fresh handle's replay through
// OpenBackend, warm a Refresh with nothing new. reqs/op counts the S3
// requests each makes.
func BenchmarkManifestRefresh(b *testing.B) {
	srv := httptest.NewServer(s3stub.New("hcoc-test"))
	defer srv.Close()
	writer := manifestStore(b, srv.URL, 0, nil)
	defer writer.Close()
	appendCharges(b, writer, "fp1", 200)

	b.Run("cold", func(b *testing.B) {
		c := newRequestCounter()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			manifestStore(b, srv.URL, 0, c).Close()
		}
		b.ReportMetric(float64(c.requests())/float64(b.N), "reqs/op")
	})
	b.Run("warm", func(b *testing.B) {
		c := newRequestCounter()
		s := manifestStore(b, srv.URL, 0, c)
		defer s.Close()
		c.take()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Refresh(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(c.requests())/float64(b.N), "reqs/op")
	})
}
