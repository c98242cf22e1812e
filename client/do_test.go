package client_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"hcoc/client"
)

// TestClientDo pins the raw single-attempt call: the request crosses
// as given, a 503 is an answer rather than a retried error, and the
// answer's bytes come back undecoded.
func TestClientDo(t *testing.T) {
	var attempts atomic.Int32
	gzipped := func() []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		_, _ = zw.Write([]byte(`{"ok":true}`))
		_ = zw.Close()
		return buf.Bytes()
	}()
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		body, _ := io.ReadAll(r.Body)
		switch {
		case r.URL.Path == "/busy":
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusServiceUnavailable)
		case r.Header.Get("Accept-Encoding") == "gzip":
			w.Header().Set("Content-Encoding", "gzip")
			_, _ = w.Write(gzipped)
		default:
			w.Header().Set("X-Echo", r.Method+" "+r.URL.RequestURI()+" "+r.Header.Get("If-Match")+" "+
				r.Header.Get("Accept-Encoding")+" "+r.Header.Get("User-Agent")+" "+string(body))
		}
	}))
	defer stub.Close()
	c, err := client.New(stub.URL, client.WithUserAgent("sdk/1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One attempt on a 503, however many retries the client allows.
	resp, err := c.Do(ctx, http.MethodGet, "/busy", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "3" || attempts.Load() != 1 {
		t.Fatalf("503 = %d (Retry-After %q) after %d attempts, want one attempt", resp.StatusCode, resp.Header.Get("Retry-After"), attempts.Load())
	}

	// Method, raw query, headers and body cross as given; a request
	// without Accept-Encoding asks for identity.
	hdr := http.Header{"If-Match": {`"fp"`}}
	resp, err = c.Do(ctx, http.MethodPost, "/v1/x?a=1&a=%2F", hdr, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, want := resp.Header.Get("X-Echo"), `POST /v1/x?a=1&a=%2F "fp" identity sdk/1 payload`; got != want {
		t.Fatalf("request crossed as %q, want %q", got, want)
	}
	if len(hdr) != 1 {
		t.Fatalf("Do modified the caller's header: %v", hdr)
	}

	// A gzip answer comes back compressed, byte for byte.
	resp, err = c.Do(ctx, http.MethodGet, "/", http.Header{"Accept-Encoding": {"gzip"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "gzip" || !bytes.Equal(raw, gzipped) {
		t.Fatalf("gzip answer decoded or altered: encoding %q, %d bytes", resp.Header.Get("Content-Encoding"), len(raw))
	}

	// Only a failure below HTTP is an error.
	stub.Close()
	if _, err := c.Do(ctx, http.MethodGet, "/", nil, nil); err == nil {
		t.Fatal("Do against a closed server succeeded")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Do(cancelled, http.MethodGet, "/", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do = %v, want context.Canceled", err)
	}
}
