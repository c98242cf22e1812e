package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestServeGzipBodiesReuseDecompressors sends, through
// Server.ServeHTTP, a valid gzipped batch, a corrupt gzip header, a
// truncated stream, a gzip bomb past the body bound and the valid
// batch again, then the valid batch from eight goroutines at once. The
// bad bodies get 400, 400 and 413, and every valid one answers exactly
// as its identity twin does. That each request hands its decompressor
// back to the idle list is pinned where the list lives, by
// httpx.TestWrapRequestReusesDecompressors.
func TestServeGzipBodiesReuseDecompressors(t *testing.T) {
	srv, err := NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.maxBody = 64 << 10
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	rel1, rel2 := releasePair(t, ts)
	raw, err := json.Marshal(batchQueryRequest{Release: rel1, Queries: crossEntries(rel1, rel2)})
	if err != nil {
		t.Fatal(err)
	}
	valid := gzipOf(t, raw)
	corrupt := append([]byte{valid[0] ^ 0xff}, valid[1:]...)
	bomb := gzipOf(t, []byte(`{"release":"`+strings.Repeat("a", 1<<20)+`"}`))
	if int64(len(bomb)) >= srv.maxBody {
		t.Fatalf("the bomb is %d bytes compressed, not under the %d-byte bound", len(bomb), srv.maxBody)
	}

	post := func(body []byte, encoding string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/query/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if encoding != "" {
			req.Header.Set("Content-Encoding", encoding)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	twin := post(raw, "")
	if twin.Code != http.StatusOK {
		t.Fatalf("identity batch: status %d: %s", twin.Code, twin.Body)
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
		rec := post(tc.body, "gzip")
		if rec.Code != tc.want {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, rec.Code, rec.Body, tc.want)
		}
		if tc.want == http.StatusOK && !bytes.Equal(rec.Body.Bytes(), twin.Body.Bytes()) {
			t.Fatalf("%s: answer differs from the identity twin's\ngzip:     %s\nidentity: %s", tc.name, rec.Body, twin.Body)
		}
	}

	// Concurrent gzipped posts share the idle list; under -race this
	// checks that no two requests ever hold one decompressor.
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}, Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query/batch", bytes.NewReader(valid))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("Content-Encoding", "gzip")
				resp, err := hc.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, twin.Body.Bytes()) {
					t.Errorf("concurrent gzipped batch: status %d, %v: %s", resp.StatusCode, err, body)
					return
				}
			}
		}()
	}
	wg.Wait()
}
