package httpx

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// gzipOf compresses raw with a fresh writer.
func gzipOf(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain empties both idle lists, so a test can count what it puts back.
func drain() {
	for len(compressors) > 0 {
		<-compressors
	}
	for len(decompressors) > 0 {
		<-decompressors
	}
}

// TestGzipRoundTrip: Gzip's output reads back through a Decompressor,
// both codecs come from and go back to their idle lists, and a stream
// whose header does not read is refused with the decompressor handed
// straight back.
func TestGzipRoundTrip(t *testing.T) {
	drain()
	raw := []byte(strings.Repeat(`{"path":["CA","Alameda"],"size":3},`, 100))
	for i := 0; i < 3; i++ {
		zb, err := Gzip(raw)
		if err != nil {
			t.Fatal(err)
		}
		if zb.Len() >= len(raw) {
			t.Fatalf("compressed %d bytes to %d", len(raw), zb.Len())
		}
		d, err := NewDecompressor(zb)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(d)
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("round trip: %d bytes (%v), want %d", len(got), err, len(raw))
		}
		d.Close()
		if len(compressors) != 1 || len(decompressors) != 1 {
			t.Fatalf("round %d: %d idle compressors and %d idle decompressors, want 1 and 1", i, len(compressors), len(decompressors))
		}
	}
	if _, err := NewDecompressor(strings.NewReader("not gzip")); err == nil {
		t.Fatal("a stream without a gzip header was accepted")
	}
	if len(decompressors) != 1 {
		t.Fatalf("%d idle decompressors after a refused stream, want 1", len(decompressors))
	}
}

// TestWrapRequestReusesDecompressors sends a valid gzipped body, a
// corrupt gzip header, a truncated stream, a gzip bomb past the body
// bound and the valid body again through WrapRequest and DecodeJSON.
// The bad bodies get 400, 400 and 413, and each valid one decodes as
// its identity twin does. The idle list starts empty and holds one
// decompressor after every request: each request took the one the last
// handed back, and handed it back in turn.
func TestWrapRequestReusesDecompressors(t *testing.T) {
	const maxBody = 64 << 10
	raw := []byte(`{"release":"r-1","queries":[` + strings.Repeat(`{"node":"US/CA","q":[0.5]},`, 60) + `{"node":"US"}]}`)
	valid := gzipOf(t, raw)
	corrupt := append([]byte{valid[0] ^ 0xff}, valid[1:]...)
	bomb := gzipOf(t, []byte(`{"release":"`+strings.Repeat("a", 1<<20)+`"}`))
	if len(bomb) >= maxBody {
		t.Fatalf("the bomb is %d bytes compressed, not under the %d-byte bound", len(bomb), maxBody)
	}
	handler := func(w http.ResponseWriter, r *http.Request) {
		r, release, ok := WrapRequest(w, r, maxBody)
		if !ok {
			return
		}
		defer release()
		var v any
		if DecodeJSON(w, r, &v) {
			WriteJSON(w, http.StatusOK, v)
		}
	}
	post := func(body []byte, encoding string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/query/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if encoding != "" {
			req.Header.Set("Content-Encoding", encoding)
		}
		rec := httptest.NewRecorder()
		handler(rec, req)
		return rec
	}
	twin := post(raw, "")
	if twin.Code != http.StatusOK {
		t.Fatalf("identity body: status %d: %s", twin.Code, twin.Body)
	}

	drain()
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"valid", valid, http.StatusOK},
		{"corrupt header", corrupt, http.StatusBadRequest},
		{"truncated stream", valid[:len(valid)/2], http.StatusBadRequest},
		{"bomb", bomb, http.StatusRequestEntityTooLarge},
		{"valid again", valid, http.StatusOK},
	} {
		rec := post(tc.body, "GZIP")
		if rec.Code != tc.want {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, rec.Code, rec.Body, tc.want)
		}
		if tc.want == http.StatusOK && !bytes.Equal(rec.Body.Bytes(), twin.Body.Bytes()) {
			t.Fatalf("%s: answer differs from the identity twin's\ngzip:     %s\nidentity: %s", tc.name, rec.Body, twin.Body)
		}
		if n := len(decompressors); n != 1 {
			t.Fatalf("%s: %d idle decompressors after the request, want 1", tc.name, n)
		}
	}

	if rec := post(raw, "br"); rec.Code != http.StatusUnsupportedMediaType || !strings.Contains(rec.Body.String(), `"code":"unsupported_media"`) {
		t.Fatalf("br body: status %d: %s", rec.Code, rec.Body)
	}
	if rec := post(raw, "identity"); rec.Code != http.StatusOK {
		t.Fatalf("identity-encoded body: status %d: %s", rec.Code, rec.Body)
	}
}

// TestCompressResponse pins the response side: an answer under
// GzipMinSize goes out as identity and one of GzipMinSize or more as
// gzip, both with the handler's status and Vary: Accept-Encoding; a
// client that does not accept gzip, and an artifact download, get the
// handler's bytes untouched.
func TestCompressResponse(t *testing.T) {
	long := bytes.Repeat([]byte("x"), GzipMinSize)
	serve := func(method, path, accept string, status int, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, nil)
		if accept != "" {
			req.Header.Set("Accept-Encoding", accept)
		}
		rec := httptest.NewRecorder()
		w, finish := CompressResponse(rec, req)
		w.Header().Set("Content-Length", "999")
		w.WriteHeader(status)
		w.WriteHeader(http.StatusTeapot) // ignored, as net/http ignores a second status
		for len(body) > 0 {              // in pieces, to cross the threshold mid-body
			n := min(len(body), 300)
			if _, err := w.Write(body[:n]); err != nil {
				t.Fatal(err)
			}
			body = body[n:]
		}
		finish()
		return rec
	}

	rec := serve("GET", "/metrics", "gzip", http.StatusCreated, long)
	if rec.Code != http.StatusCreated || rec.Header().Get("Content-Encoding") != "gzip" ||
		rec.Header().Get("Vary") != "Accept-Encoding" || rec.Header().Get("Content-Length") != "" {
		t.Fatalf("long answer: status %d, headers %v", rec.Code, rec.Header())
	}
	d, err := NewDecompressor(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(d)
	d.Close()
	if err != nil || !bytes.Equal(got, long) {
		t.Fatalf("long answer decompresses to %d bytes (%v), want %d", len(got), err, len(long))
	}

	rec = serve("GET", "/metrics", "gzip", http.StatusAccepted, long[:GzipMinSize-1])
	if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Encoding") != "" ||
		rec.Header().Get("Vary") != "Accept-Encoding" || rec.Body.Len() != GzipMinSize-1 {
		t.Fatalf("short answer: status %d, headers %v, %d bytes", rec.Code, rec.Header(), rec.Body.Len())
	}

	for _, tc := range []struct{ method, path, accept string }{
		{"GET", "/metrics", ""},
		{"GET", "/metrics", "gzip;q=0"},
		{"GET", "/v1/release/r-1", "gzip"},
		{"HEAD", "/v1/release/r-1", "gzip"},
	} {
		rec := serve(tc.method, tc.path, tc.accept, http.StatusOK, long)
		if rec.Header().Get("Content-Encoding") != "" || rec.Header().Get("Vary") != "" || !bytes.Equal(rec.Body.Bytes(), long) {
			t.Fatalf("%s %s (Accept-Encoding %q) was rewritten: headers %v", tc.method, tc.path, tc.accept, rec.Header())
		}
	}
	if rec := serve("GET", "/v1/release", "gzip", http.StatusOK, long); rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatal("the release listing was not compressed")
	}
}

// TestAcceptsGzip pins the Accept-Encoding negotiation: tokens are
// case-insensitive and every RFC spelling of a zero q-value refuses.
func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{"br, gzip;q=0.5", true},
		{"*", true},
		{"gzip;q=0", false},
		{"gzip;q=0.0", false},
		{"gzip;q=0.000", false},
		{"br", false},
		{"identity", false},
	}
	for _, tc := range cases {
		r, _ := http.NewRequest("GET", "/healthz", nil)
		if tc.header != "" {
			r.Header.Set("Accept-Encoding", tc.header)
		}
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestDecodeJSONRefusals pins the statuses and codes of a body
// DecodeJSON refuses, and the code WriteError derives from each status.
func TestDecodeJSONRefusals(t *testing.T) {
	decode := func(contentType, body string, limit int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/release", strings.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := httptest.NewRecorder()
		req.Body = http.MaxBytesReader(rec, req.Body, limit)
		var v map[string]any
		if DecodeJSON(rec, req, &v) {
			WriteJSON(rec, http.StatusOK, v)
		}
		return rec
	}
	for _, tc := range []struct {
		contentType, body string
		limit             int64
		status            int
		code              string
	}{
		{"", `{"a":1}`, 100, http.StatusOK, ""},
		{"application/json; charset=utf-8", `{"a":1}`, 100, http.StatusOK, ""},
		{"text/json", `{"a":1}`, 100, http.StatusOK, ""},
		{"text/plain", `{"a":1}`, 100, http.StatusUnsupportedMediaType, "unsupported_media"},
		{"application/json", `{"a":`, 100, http.StatusBadRequest, "bad_request"},
		{"application/json", `{"a":"` + strings.Repeat("z", 200) + `"}`, 100, http.StatusRequestEntityTooLarge, "too_large"},
	} {
		rec := decode(tc.contentType, tc.body, tc.limit)
		if rec.Code != tc.status || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%q %.20s: status %d, Content-Type %q", tc.contentType, tc.body, rec.Code, rec.Header().Get("Content-Type"))
		}
		if tc.code == "" {
			continue
		}
		var e struct{ Error, Code string }
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != tc.code || e.Error == "" {
			t.Fatalf("%q: body %s, want code %q", tc.contentType, rec.Body, tc.code)
		}
	}
	for status, code := range map[int]string{
		http.StatusNotFound:            "not_found",
		http.StatusConflict:            "version_conflict",
		http.StatusTooManyRequests:     "rate_limited",
		http.StatusServiceUnavailable:  "unavailable",
		http.StatusInsufficientStorage: "insufficient_storage",
		http.StatusBadGateway:          "internal",
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, status, "n=%d", 3)
		if want := `{"error":"n=3","code":"` + code + `"}` + "\n"; rec.Code != status || rec.Body.String() != want {
			t.Errorf("WriteError(%d) = %d %s, want %s", status, rec.Code, rec.Body, want)
		}
	}
}
