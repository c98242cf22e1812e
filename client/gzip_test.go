package client_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
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

// crossQueries is a batch of n emd entries across two releases, the
// shape of a cross-release batch: at n = 16 its body is over 1 KiB.
func crossQueries(n int) []client.NodeQuery {
	a, b := "r-"+strings.Repeat("a", 64), "r-"+strings.Repeat("b", 64)
	qs := make([]client.NodeQuery, n)
	for i := range qs {
		qs[i] = client.NodeQuery{Op: "emd", Releases: []string{a, b}, Node: fmt.Sprintf("US/R%02d", i)}
	}
	return qs
}

// batchJSON is the body BatchQuery sends for release and queries.
func batchJSON(t *testing.T, release string, queries []client.NodeQuery) []byte {
	t.Helper()
	raw, err := json.Marshal(struct {
		Release string             `json:"release"`
		Queries []client.NodeQuery `json:"queries"`
	}{release, queries})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// gzipBatchStub answers every batch with one empty result per query.
// It fails the test on a body that is not gzipped, and hands each raw
// body to record, when record is not nil.
func gzipBatchStub(t *testing.T, record func(raw []byte)) *httptest.Server {
	var mu sync.Mutex
	var zr gzip.Reader // one reader, so the stub adds little to an allocation count
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(r.Body)
		if err != nil || r.Header.Get("Content-Encoding") != "gzip" {
			t.Errorf("batch body: Content-Encoding %q, read error %v; want a gzipped body", r.Header.Get("Content-Encoding"), err)
			http.Error(w, "want gzip", http.StatusBadRequest)
			return
		}
		var req struct {
			Queries []json.RawMessage `json:"queries"`
		}
		mu.Lock()
		if record != nil {
			record(raw)
		}
		if zr.Reset(bytes.NewReader(raw)) == nil {
			_ = json.NewDecoder(&zr).Decode(&req)
		}
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = fmt.Fprintf(w, `{"results":[%s]}`, strings.TrimSuffix(strings.Repeat("{},", len(req.Queries)), ","))
	}))
}

// TestClientGzipRequestsReuseCleanly: one client alternates two batch
// bodies of different sizes, both of at least 1 KiB, so every
// compressor it reuses last compressed the other body. Each body that
// arrives is, byte for byte, what a fresh compressor makes of the same
// JSON, and decompresses to that JSON.
func TestClientGzipRequestsReuseCleanly(t *testing.T) {
	var bodies [][]byte
	stub := gzipBatchStub(t, func(raw []byte) { bodies = append(bodies, raw) })
	defer stub.Close()

	c := newClient(t, stub.URL)
	sizes := []int{16, 40}
	const calls = 6
	for i := 0; i < calls; i++ {
		if _, err := c.BatchQuery(context.Background(), "r-default", crossQueries(sizes[i%2])); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if len(bodies) != calls {
		t.Fatalf("stub saw %d bodies, want %d", len(bodies), calls)
	}
	for i, raw := range bodies {
		want := batchJSON(t, "r-default", crossQueries(sizes[i%2]))
		if len(want) < 1<<10 {
			t.Fatalf("body %d is %d bytes, under the compression threshold", i, len(want))
		}
		var fresh bytes.Buffer
		zw := gzip.NewWriter(&fresh)
		if _, err := zw.Write(want); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, fresh.Bytes()) {
			t.Errorf("body %d (%d queries): %d compressed bytes differ from a fresh compressor's %d", i, sizes[i%2], len(raw), fresh.Len())
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		got, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("body %d decompresses to %d bytes (%v), want the %d-byte batch JSON", i, len(got), err, len(want))
		}
	}
}

// allocated is how many heap bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestClientReusesCompressors: 100 compressed calls allocate under a
// quarter of what 100 fresh compressors would, stub server included.
// A fresh compressor is about 800 KB of flate state.
func TestClientReusesCompressors(t *testing.T) {
	stub := gzipBatchStub(t, nil)
	defer stub.Close()

	c := newClient(t, stub.URL)
	qs := crossQueries(16)
	body := batchJSON(t, "r-default", qs)
	fresh := allocated(func() {
		for i := 0; i < 10; i++ {
			zw := gzip.NewWriter(io.Discard)
			_, _ = zw.Write(body)
			_ = zw.Close()
		}
	}) / 10
	calls := allocated(func() {
		for i := 0; i < 100; i++ {
			if _, err := c.BatchQuery(context.Background(), "r-default", qs); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
	})
	if calls >= 100*fresh/4 {
		t.Fatalf("100 compressed calls allocated %d KB; 100 fresh compressors allocate %d KB, and the calls may take a quarter of that",
			calls>>10, 100*fresh>>10)
	}
	t.Logf("100 compressed calls: %d KB; one fresh compressor: %d KB", calls>>10, fresh>>10)
}
