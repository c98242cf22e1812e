package gateway

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hcoc/client"
	"hcoc/internal/engine"
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

// TestGatewayGzipBodiesReuseDecompressors sends, through the gateway,
// a valid gzipped cross-release batch, a corrupt gzip header, a
// truncated stream, a gzip bomb past the body bound and the valid
// batch again, then the valid batch from eight goroutines at once. The
// bad bodies get 400, 400 and 413, and every valid one answers exactly
// as its identity twin does.
func TestGatewayGzipBodiesReuseDecompressors(t *testing.T) {
	ctx := context.Background()
	b := newBackend(t, engine.Options{})
	gw, err := New(Options{
		Backends:      []string{b.ts.URL},
		Replication:   1,
		FailThreshold: 1,
		ClientOptions: []client.Option{client.WithMaxRetries(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.maxBody = 64 << 10
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)

	h, err := b.c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 2)
	for i, seed := range []int64{7, 8} {
		rel, err := b.c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = rel.Release
	}
	queries := make([]client.NodeQuery, 16)
	for i := range queries {
		queries[i] = client.NodeQuery{Op: "emd", Releases: ids, Node: []string{"US", "US/CA", "US/WA"}[i%3]}
	}
	raw, err := json.Marshal(map[string]any{"release": ids[0], "queries": queries})
	if err != nil {
		t.Fatal(err)
	}
	valid := gzipOf(t, raw)
	corrupt := append([]byte{valid[0] ^ 0xff}, valid[1:]...)
	bomb := gzipOf(t, []byte(`{"release":"`+strings.Repeat("a", 1<<20)+`"}`))
	if int64(len(bomb)) >= gw.maxBody {
		t.Fatalf("the bomb is %d bytes compressed, not under the %d-byte bound", len(bomb), gw.maxBody)
	}

	url := ts.URL + "/v1/query/batch"
	plain := map[string]string{"Content-Type": "application/json"}
	zipped := map[string]string{"Content-Type": "application/json", "Content-Encoding": "gzip"}
	resp, twin := send(t, http.MethodPost, url, plain, raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identity batch: status %d: %s", resp.StatusCode, twin)
	}
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
		resp, body := send(t, http.MethodPost, url, zipped, tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
		if tc.want == http.StatusOK && !bytes.Equal(body, twin) {
			t.Fatalf("%s: answer differs from the identity twin's\ngzip:     %s\nidentity: %s", tc.name, body, twin)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(valid))
				if err != nil {
					t.Error(err)
					return
				}
				for k, v := range zipped {
					req.Header.Set(k, v)
				}
				resp, err := rawClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, twin) {
					t.Errorf("concurrent gzipped batch: status %d, %v: %s", resp.StatusCode, err, body)
					return
				}
			}
		}()
	}
	wg.Wait()
}
