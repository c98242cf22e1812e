package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hcoc"
	"hcoc/internal/engine"
)

// releaseOnServer uploads the taxi workload and computes one release,
// returning its served id ("r-...").
func releaseOnServer(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	hr := uploadGroups(t, ts, "Manhattan", taxiGroups(t))
	var rr releaseResponse
	req := releaseRequest{Hierarchy: hr.ID, Algorithm: "topdown", Epsilon: 1, K: 2000, Seed: 7}
	if status, body := postJSON(t, ts.URL+"/v1/release", req, &rr); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}
	return rr.Release
}

// get issues a GET with extra headers and returns the full response.
func get(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	// A plain transport: no automatic gzip negotiation, so the test
	// sees exactly the headers the server set.
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestDownloadConditionalHeaders pins the artifact download contract on
// the zero-copy (store-backed) path: exact Content-Length, strong ETag,
// Accept-Ranges, 304 on If-None-Match, and identity encoding even when
// the client accepts gzip.
func TestDownloadConditionalHeaders(t *testing.T) {
	st := openStore(t, t.TempDir())
	ts := newTestServer(t, engine.Options{Store: st})
	id := releaseOnServer(t, ts)
	url := ts.URL + "/v1/release/" + id

	resp := get(t, url, map[string]string{"Accept-Encoding": "gzip"})
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("artifact download compressed (%q); must be identity for Range/Content-Length", ce)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q, body is %d bytes", cl, len(body))
	}
	if ar := resp.Header.Get("Accept-Ranges"); ar != "bytes" {
		t.Fatalf("Accept-Ranges = %q", ar)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"`+strings.TrimPrefix(id, "r-")+`"` {
		t.Fatalf("ETag = %q, want the quoted release key", etag)
	}
	// The body is the verbatim sparse artifact.
	if _, epsilon, err := hcoc.ReadReleaseSparse(bytes.NewReader(body)); err != nil || epsilon != 1 {
		t.Fatalf("artifact decode: epsilon=%g err=%v", epsilon, err)
	}

	// Conditional revalidation: the strong ETag answers 304 with no body.
	resp304 := get(t, url, map[string]string{"If-None-Match": etag})
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match: status %d, want 304", resp304.StatusCode)
	}

	// HEAD carries the same metadata without the body.
	headResp, err := http.Head(url)
	if err != nil {
		t.Fatal(err)
	}
	defer headResp.Body.Close()
	if headResp.StatusCode != http.StatusOK || headResp.ContentLength != int64(len(body)) {
		t.Fatalf("HEAD: status %d length %d, want 200/%d", headResp.StatusCode, headResp.ContentLength, len(body))
	}
}

// TestDownloadRange pins byte-range semantics: a valid range answers
// 206 with exactly the requested bytes, a suffix range works, an
// unsatisfiable or malformed range answers 416.
func TestDownloadRange(t *testing.T) {
	st := openStore(t, t.TempDir())
	ts := newTestServer(t, engine.Options{Store: st})
	id := releaseOnServer(t, ts)
	url := ts.URL + "/v1/release/" + id

	full, err := io.ReadAll(get(t, url, nil).Body)
	if err != nil {
		t.Fatal(err)
	}
	size := len(full)

	resp := get(t, url, map[string]string{"Range": "bytes=100-199"})
	part, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range: status %d, want 206", resp.StatusCode)
	}
	if want := fmt.Sprintf("bytes 100-199/%d", size); resp.Header.Get("Content-Range") != want {
		t.Fatalf("Content-Range = %q, want %q", resp.Header.Get("Content-Range"), want)
	}
	if !bytes.Equal(part, full[100:200]) {
		t.Fatalf("range body is %d bytes and differs from the artifact slice", len(part))
	}

	// Suffix range: the artifact's last 50 bytes.
	tail := get(t, url, map[string]string{"Range": "bytes=-50"})
	tailBody, _ := io.ReadAll(tail.Body)
	if tail.StatusCode != http.StatusPartialContent || !bytes.Equal(tailBody, full[size-50:]) {
		t.Fatalf("suffix range: status %d, %d bytes", tail.StatusCode, len(tailBody))
	}

	for _, tc := range []struct {
		rng       string
		wantRange bool // "bytes */size" advertised (unsatisfiable, not malformed)
	}{
		{"bytes=10-2", false},                      // end before start: malformed
		{fmt.Sprintf("bytes=%d-", size+100), true}, // beyond the artifact
	} {
		resp := get(t, url, map[string]string{"Range": tc.rng})
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("Range %q: status %d, want 416", tc.rng, resp.StatusCode)
		}
		cr := resp.Header.Get("Content-Range")
		if tc.wantRange && cr != fmt.Sprintf("bytes */%d", size) {
			t.Fatalf("416 Content-Range = %q", cr)
		}
	}
}

// TestDownloadBufferedPathSameContract: without a durable store the
// download takes the buffered path, which must serve byte-identical
// semantics — Content-Length, ETag, ranges — so clients cannot tell the
// deployments apart.
func TestDownloadBufferedPathSameContract(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	id := releaseOnServer(t, ts)
	url := ts.URL + "/v1/release/" + id

	resp := get(t, url, nil)
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q, body is %d bytes", cl, len(body))
	}
	if resp.Header.Get("ETag") == "" || resp.Header.Get("Accept-Ranges") != "bytes" {
		t.Fatalf("missing conditional headers: %+v", resp.Header)
	}
	r206 := get(t, url, map[string]string{"Range": "bytes=0-9"})
	part, _ := io.ReadAll(r206.Body)
	if r206.StatusCode != http.StatusPartialContent || !bytes.Equal(part, body[:10]) {
		t.Fatalf("buffered range: status %d, %q", r206.StatusCode, part)
	}

	// The dense rendering is a different byte stream under a distinct
	// strong ETag.
	dense := get(t, url+"?format=dense", nil)
	if dense.StatusCode != http.StatusOK {
		t.Fatalf("dense: status %d", dense.StatusCode)
	}
	if etag := dense.Header.Get("ETag"); !strings.HasSuffix(etag, `-dense"`) {
		t.Fatalf("dense ETag = %q", etag)
	}
	if status := get(t, url+"?format=bogus", nil).StatusCode; status != http.StatusBadRequest {
		t.Fatalf("bogus format: status %d, want 400", status)
	}
}
