package client_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"hcoc/client"
)

// gzipAnswers answers every request with status and body, gzipped when
// the request accepts gzip, and fails the test when a request does not
// ask for gzip.
func gzipAnswers(t *testing.T, status int, body string) http.HandlerFunc {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write([]byte(body))
	_ = zw.Close()
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Header.Get("Accept-Encoding") != "gzip" {
			t.Errorf("%s %s: Accept-Encoding %q, want gzip", r.Method, r.URL.Path, r.Header.Get("Accept-Encoding"))
			w.WriteHeader(status)
			_, _ = w.Write([]byte(body))
			return
		}
		w.Header().Set("Content-Encoding", "gzip")
		w.WriteHeader(status)
		_, _ = w.Write(buf.Bytes())
	}
}

// TestClientGzipResponses: the SDK decodes a gzipped answer, an
// identity answer and a gzipped error, which still maps to its typed
// error, also on a transport that would not decompress by itself.
func TestClientGzipResponses(t *testing.T) {
	const job = `{"job":"j-1","status":"done","release":"r-1"}`
	mux := http.NewServeMux()
	mux.Handle("/v1/jobs/j-gzip", gzipAnswers(t, http.StatusOK, job))
	mux.HandleFunc("/v1/jobs/j-plain", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(job))
	})
	mux.Handle("/v1/release", gzipAnswers(t, http.StatusTooManyRequests,
		`{"error":"would exceed budget","code":"budget","hierarchy":"h-abc","requested_epsilon":1,"remaining_epsilon":0.25,"max_epsilon_per_hierarchy":2}`))
	mux.Handle("/v1/jobs/j-gone", gzipAnswers(t, http.StatusNotFound, `{"error":"no such job","code":"not_found"}`))
	stub := httptest.NewServer(mux)
	defer stub.Close()

	ctx := context.Background()
	for name, c := range map[string]*client.Client{
		"default": newClient(t, stub.URL),
		"transport without compression": newClient(t, stub.URL, client.WithHTTPClient(&http.Client{
			Transport: &http.Transport{DisableCompression: true},
		})),
	} {
		for _, id := range []string{"j-gzip", "j-plain"} {
			j, err := c.Job(ctx, id)
			if err != nil || j.Job != "j-1" || j.Release != "r-1" {
				t.Errorf("%s: job %s = %+v, %v", name, id, j, err)
			}
		}
		_, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: "h-abc", Epsilon: 1})
		var be *client.BudgetError
		if !errors.As(err, &be) || be.RemainingEpsilon != 0.25 || be.MaxEpsilonPerHierarchy != 2 {
			t.Errorf("%s: gzipped refusal = %v, want a BudgetError with its fields", name, err)
		}
		_, err = c.Job(ctx, "j-gone")
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound || ae.Code != "not_found" || ae.Message != "no such job" {
			t.Errorf("%s: gzipped 404 = %v, want an APIError with its message", name, err)
		}
	}
}

// TestClientReusesConnection: 50 sequential calls, gzipped and not,
// success and error, travel on one connection, because the SDK reads
// every body to its end.
func TestClientReusesConnection(t *testing.T) {
	var conns atomic.Int32
	mux := http.NewServeMux()
	mux.Handle("/v1/jobs/j-gzip", gzipAnswers(t, http.StatusOK, `{"job":"j-1","status":"done"}`+"\n"))
	mux.Handle("/v1/jobs/j-gone", gzipAnswers(t, http.StatusNotFound, `{"error":"no such job","code":"not_found"}`))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
	})
	stub := httptest.NewUnstartedServer(mux)
	stub.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	stub.Start()
	defer stub.Close()

	c := newClient(t, stub.URL)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, err = c.Job(ctx, "j-gzip")
		case 1:
			err = c.Healthz(ctx)
		case 2:
			if _, err = c.Job(ctx, "j-gone"); err != nil && strings.Contains(err.Error(), "no such job") {
				err = nil
			}
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("50 calls opened %d connections, want 1", n)
	}
}
