package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"hcoc"
	"hcoc/internal/dataset"
	"hcoc/internal/engine"
	"hcoc/internal/hierarchy"
	"hcoc/internal/store"
	"hcoc/internal/store/s3stub"
)

// discardWriter is a ResponseWriter whose body sink is free, so the
// download benchmarks measure the serving path's own allocations rather
// than a test buffer growing to artifact size.
type discardWriter struct {
	h      http.Header
	status int
	n      int64
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discardWriter) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.n += int64(len(p))
	return len(p), nil
}

// benchServers builds one engine holding a census-sized release and two
// servers over it: one store-backed (the zero-copy download path) and
// one cache-only (the buffered decode/re-encode baseline). Both serve
// the identical sparse artifact.
func benchServers(tb testing.TB) (zerocopy, buffered *Server, id string, size int64) {
	tb.Helper()
	st, err := store.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	groups, err := dataset.Generate(dataset.Taxi, dataset.Config{Seed: 1, Scale: 0.02})
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := hcoc.BuildHierarchy("Manhattan", groups)
	if err != nil {
		tb.Fatal(err)
	}
	eng := engine.New(engine.Options{Store: st})
	res, err := eng.Release(context.Background(), tree, hierarchy.FingerprintTree(tree), engine.TopDown, hcoc.Options{Epsilon: 1, K: 2000, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	zerocopy, err = NewServer(eng, st)
	if err != nil {
		tb.Fatal(err)
	}
	buffered, err = NewServer(eng, nil)
	if err != nil {
		tb.Fatal(err)
	}
	f, info, _, err := st.OpenRelease(res.Key)
	if err != nil {
		tb.Fatal(err)
	}
	f.Close()
	return zerocopy, buffered, "r-" + res.Key, info.Size
}

// benchS3Server serves the artifact src holds under id from a store
// over an in-process s3stub: the read a shared-store fleet pays a bucket
// GET for on every direct download.
func benchS3Server(tb testing.TB, src *Server, id string) *Server {
	tb.Helper()
	stub := httptest.NewServer(s3stub.New("hcoc"))
	tb.Cleanup(stub.Close)
	b, err := store.NewS3(store.S3Options{Endpoint: stub.URL, Bucket: "hcoc"})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	rel, m, err := src.st.GetRelease(releaseID(id))
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.PutRelease(m, rel); err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(engine.New(engine.Options{Store: st}), st)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

func benchDownload(b *testing.B, srv *Server, id string, size int64) {
	b.ReportAllocs()
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/release/"+id, nil)
		w := &discardWriter{h: make(http.Header)}
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n != size {
			b.Fatalf("download: status %d, %d of %d bytes", w.status, w.n, size)
		}
	}
}

// BenchmarkArtifactDownload compares the GET /v1/release/{id} paths on
// a census-sized artifact: zerocopy streams the stored bytes from the
// disk store through http.ServeContent; buffered is the decode +
// re-serialize baseline the zero-copy refactor replaced; s3 streams the
// same bytes from a store over an in-process s3stub, one bucket GET per
// download.
func BenchmarkArtifactDownload(b *testing.B) {
	zerocopy, buffered, id, size := benchServers(b)
	s3 := benchS3Server(b, zerocopy, id)
	b.Run("zerocopy", func(b *testing.B) { benchDownload(b, zerocopy, id, size) })
	b.Run("buffered", func(b *testing.B) { benchDownload(b, buffered, id, size) })
	b.Run("s3", func(b *testing.B) { benchDownload(b, s3, id, size) })
}

// TestDownloadAllocRatio pins the refactor's acceptance bound: the
// zero-copy download path must allocate at most half of the buffered
// baseline, by bytes and by allocation count.
func TestDownloadAllocRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ratio is measured in the non-short tier")
	}
	zerocopy, buffered, id, size := benchServers(t)
	zc := testing.Benchmark(func(b *testing.B) { benchDownload(b, zerocopy, id, size) })
	bf := testing.Benchmark(func(b *testing.B) { benchDownload(b, buffered, id, size) })
	t.Logf("zerocopy: %d B/op %d allocs/op; buffered: %d B/op %d allocs/op",
		zc.AllocedBytesPerOp(), zc.AllocsPerOp(), bf.AllocedBytesPerOp(), bf.AllocsPerOp())
	if zc.AllocedBytesPerOp()*2 > bf.AllocedBytesPerOp() {
		t.Errorf("zero-copy path allocates %d B/op, more than half the buffered %d B/op",
			zc.AllocedBytesPerOp(), bf.AllocedBytesPerOp())
	}
	if zc.AllocsPerOp()*2 > bf.AllocsPerOp() {
		t.Errorf("zero-copy path makes %d allocs/op, more than half the buffered %d",
			zc.AllocsPerOp(), bf.AllocsPerOp())
	}
}
