package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hcoc"
	"hcoc/internal/store/s3stub"
)

// backendCase constructs one BlobStore implementation for the
// conformance suite. close tears down any server the backend needs.
type backendCase struct {
	name string
	open func(t *testing.T) BlobStore
}

func backendCases() []backendCase {
	return []backendCase{
		{name: "disk", open: func(t *testing.T) BlobStore {
			b, err := NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{name: "s3", open: func(t *testing.T) BlobStore {
			srv := httptest.NewServer(s3stub.New("hcoc-test"))
			t.Cleanup(srv.Close)
			b, err := NewS3(S3Options{
				Endpoint:     srv.URL,
				Bucket:       "hcoc-test",
				Prefix:       "unit",
				AccessKey:    "test",
				SecretKey:    "secret",
				ListPageSize: 3, // small pages force ListObjectsV2 pagination
			})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
}

// TestBlobConformance pins the BlobStore contract against every
// backend: the store layers above assume exactly these semantics.
func TestBlobConformance(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.open(t)
			defer b.Close()

			t.Run("get-missing", func(t *testing.T) {
				if _, _, err := b.Get("releases/absent.json"); !errors.Is(err, ErrNoBlob) {
					t.Fatalf("Get(missing) = %v, want ErrNoBlob", err)
				}
				if _, err := b.Stat("releases/absent.json"); !errors.Is(err, ErrNoBlob) {
					t.Fatalf("Stat(missing) = %v, want ErrNoBlob", err)
				}
			})

			t.Run("roundtrip-and-overwrite", func(t *testing.T) {
				if err := b.Put("releases/a.json", []byte("v1")); err != nil {
					t.Fatal(err)
				}
				if err := b.Put("releases/a.json", []byte("version-two")); err != nil {
					t.Fatal(err)
				}
				r, info, err := b.Get("releases/a.json")
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				data, err := io.ReadAll(r)
				if err != nil {
					t.Fatal(err)
				}
				if string(data) != "version-two" {
					t.Fatalf("read %q after overwrite", data)
				}
				if info.Size != int64(len("version-two")) || info.Key != "releases/a.json" {
					t.Fatalf("info = %+v", info)
				}
			})

			t.Run("seek", func(t *testing.T) {
				if err := b.Put("releases/seek.json", []byte("0123456789")); err != nil {
					t.Fatal(err)
				}
				r, _, err := b.Get("releases/seek.json")
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				// The seek pattern http.ServeContent uses: size probe via
				// SeekEnd, rewind, then seek to the range start.
				if n, err := r.Seek(0, io.SeekEnd); err != nil || n != 10 {
					t.Fatalf("SeekEnd = %d, %v", n, err)
				}
				if _, err := r.Seek(4, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				rest, err := io.ReadAll(r)
				if err != nil {
					t.Fatal(err)
				}
				if string(rest) != "456789" {
					t.Fatalf("read after seek = %q", rest)
				}
			})

			t.Run("concurrent-put-same-key", func(t *testing.T) {
				payloads := make([][]byte, 8)
				for i := range payloads {
					payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 1024)
				}
				var wg sync.WaitGroup
				for _, p := range payloads {
					wg.Add(1)
					go func(p []byte) {
						defer wg.Done()
						if err := b.Put("releases/race.json", p); err != nil {
							t.Error(err)
						}
					}(p)
				}
				wg.Wait()
				r, _, err := b.Get("releases/race.json")
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				got, err := io.ReadAll(r)
				if err != nil {
					t.Fatal(err)
				}
				// One writer's complete payload, never a torn interleaving.
				ok := false
				for _, p := range payloads {
					if bytes.Equal(got, p) {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("concurrent put left a torn object (%d bytes)", len(got))
				}
			})

			t.Run("list-prefix-order", func(t *testing.T) {
				// More objects than the S3 ListPageSize so pagination runs.
				for i := 0; i < 7; i++ {
					if err := b.Put(fmt.Sprintf("hierarchies/h%d.json", i), []byte("x")); err != nil {
						t.Fatal(err)
					}
				}
				infos, err := b.List("hierarchies/")
				if err != nil {
					t.Fatal(err)
				}
				if len(infos) != 7 {
					t.Fatalf("List returned %d keys, want 7", len(infos))
				}
				for i := 1; i < len(infos); i++ {
					if infos[i-1].Key >= infos[i].Key {
						t.Fatalf("List unsorted: %q before %q", infos[i-1].Key, infos[i].Key)
					}
				}
				for _, info := range infos {
					if !strings.HasPrefix(info.Key, "hierarchies/") {
						t.Fatalf("List leaked key %q outside prefix", info.Key)
					}
				}
			})

			t.Run("delete-idempotent", func(t *testing.T) {
				if err := b.Put("releases/del.json", []byte("x")); err != nil {
					t.Fatal(err)
				}
				if err := b.Delete("releases/del.json"); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Stat("releases/del.json"); !errors.Is(err, ErrNoBlob) {
					t.Fatalf("Stat after delete = %v", err)
				}
				if err := b.Delete("releases/del.json"); err != nil {
					t.Fatalf("second delete: %v", err)
				}
			})

			t.Run("manifest-append-order", func(t *testing.T) {
				for i := 0; i < 5; i++ {
					line := fmt.Sprintf(`{"key":"m%d"}`+"\n", i)
					if err := b.AppendManifest([]byte(line)); err != nil {
						t.Fatal(err)
					}
				}
				r, err := b.ManifestReader()
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				data, err := io.ReadAll(r)
				if err != nil {
					t.Fatal(err)
				}
				want := `{"key":"m0"}` + "\n" + `{"key":"m1"}` + "\n" + `{"key":"m2"}` + "\n" + `{"key":"m3"}` + "\n" + `{"key":"m4"}` + "\n"
				if string(data) != want {
					t.Fatalf("manifest replay out of order:\n%s", data)
				}
			})
		})
	}
}

// openStoreS3 builds a Store over a fresh stub-backed S3 backend.
func openStoreS3(t *testing.T, srv *httptest.Server) *Store {
	t.Helper()
	b, err := NewS3(S3Options{
		Endpoint: srv.URL, Bucket: "hcoc-test", Prefix: "store",
		AccessKey: "test", SecretKey: "secret", ListPageSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreOverS3 runs the Store protocol (charge/put/replay) against
// the S3 backend: a second Store over the same bucket must replay the
// manifest chunks into the identical index a disk reopen would.
func TestStoreOverS3(t *testing.T) {
	srv := httptest.NewServer(s3stub.New("hcoc-test"))
	defer srv.Close()

	s := openStoreS3(t, srv)
	rel, _ := testRelease(t, 1)
	rel2, _ := testRelease(t, 2)
	put := func(m Meta, r hcoc.SparseHistograms) {
		t.Helper()
		if err := s.AppendCharge(m); err != nil {
			t.Fatal(err)
		}
		if err := s.PutRelease(m, r); err != nil {
			t.Fatal(err)
		}
	}
	put(meta("k1", "fp1", 0.5), rel)
	put(meta("k2", "fp1", 0.25), rel2)
	put(meta("k3", "fp2", 2), rel)
	put(meta("k1", "fp1", 0.5), rel2)
	if err := s.AppendCharge(meta("k9", "fp1", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRefund(meta("k9", "fp1", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStoreS3(t, srv)
	defer s2.Close()
	if s2.Backend() != "s3" || !s2.Shared() {
		t.Fatalf("backend = %q shared = %v", s2.Backend(), s2.Shared())
	}
	if s2.Len() != 3 {
		t.Fatalf("replayed store indexes %d releases, want 3", s2.Len())
	}
	list := s2.List()
	if len(list) != 3 || list[0].Key != "k1" || list[1].Key != "k2" || list[2].Key != "k3" {
		t.Fatalf("list order = %+v", list)
	}
	spent := s2.EpsilonByHierarchy()
	if spent["fp1"] != 1.25 || spent["fp2"] != 2 {
		t.Fatalf("spent = %v, want fp1=1.25 fp2=2", spent)
	}
	got, _, err := s2.GetRelease("k1")
	if err != nil {
		t.Fatal(err)
	}
	for path, h := range rel2 {
		if !h.Equal(got[path]) {
			t.Fatalf("re-put release not the latest artifact at %q", path)
		}
	}
}

// TestStoreS3TornFinalChunk: a torn final manifest chunk (a crash
// mid-upload that an S3-alike without atomic PUT could leave, or a
// half-written line inside the newest chunk) is dropped on replay, like
// the disk backend's torn final line.
func TestStoreS3TornFinalChunk(t *testing.T) {
	srv := httptest.NewServer(s3stub.New("hcoc-test"))
	defer srv.Close()

	s := openStoreS3(t, srv)
	rel, _ := testRelease(t, 1)
	if err := s.PutRelease(meta("k1", "fp1", 1), rel); err != nil {
		t.Fatal(err)
	}
	// A torn chunk that sorts after every real one.
	if err := s.b.Put("manifest/99999999999999999999-ffff.jsonl", []byte(`{"key":"k2","hier`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openStoreS3(t, srv)
	defer s2.Close()
	if s2.Len() != 1 || !indexed(t, s2, "k1") || indexed(t, s2, "k2") {
		t.Fatalf("store after torn chunk: len=%d", s2.Len())
	}
}

// TestStoreSharedRefreshOnMiss: a second Store over the same bucket
// sees a key released after its boot-time replay, because a shared
// backend refreshes the index on a miss whose artifact is in the bucket.
func TestStoreSharedRefreshOnMiss(t *testing.T) {
	srv := httptest.NewServer(s3stub.New("hcoc-test"))
	defer srv.Close()

	writer := openStoreS3(t, srv)
	defer writer.Close()
	reader := openStoreS3(t, srv) // boots on an empty manifest
	defer reader.Close()

	rel, _ := testRelease(t, 1)
	if err := writer.AppendCharge(meta("k1", "fp1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := writer.PutRelease(meta("k1", "fp1", 1), rel); err != nil {
		t.Fatal(err)
	}

	if !indexed(t, reader, "k1") {
		t.Fatal("shared-store miss did not refresh the index")
	}
	got, m, err := reader.GetRelease("k1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Epsilon != 1 {
		t.Fatalf("meta = %+v", m)
	}
	for path, h := range rel {
		if !h.Equal(got[path]) {
			t.Fatalf("cross-process release differs at %q", path)
		}
	}
	// The refresh replays the writer's charges too — no double count.
	if spent := reader.EpsilonByHierarchy(); spent["fp1"] != 1 {
		t.Fatalf("spent = %v, want fp1=1", spent)
	}
}

// TestLatestReleaseSharedRefresh: on a shared store, LatestRelease
// reads the index as last replayed, and a Refresh picks up another
// node's newer artifact of the same fingerprint.
func TestLatestReleaseSharedRefresh(t *testing.T) {
	srv := httptest.NewServer(s3stub.New("hcoc-test"))
	defer srv.Close()
	writer := openStoreS3(t, srv)
	defer writer.Close()
	reader := openStoreS3(t, srv)
	defer reader.Close()

	rel, _ := testRelease(t, 1)
	older, newer := meta("k1", "fp1", 1), meta("k2", "fp1", 1)
	newer.CreatedAt = older.CreatedAt.Add(time.Minute)
	if err := writer.PutRelease(older, rel); err != nil {
		t.Fatal(err)
	}
	if err := reader.Refresh(); err != nil {
		t.Fatal(err)
	}
	if m, ok := reader.LatestRelease("fp1"); !ok || m.Key != "k1" {
		t.Fatalf("after the first refresh: %+v, %v; want k1", m, ok)
	}
	if err := writer.PutRelease(newer, rel); err != nil {
		t.Fatal(err)
	}
	if m, _ := reader.LatestRelease("fp1"); m.Key != "k1" {
		t.Fatalf("before a refresh: %q, want the replayed k1", m.Key)
	}
	if err := reader.Refresh(); err != nil {
		t.Fatal(err)
	}
	if m, ok := reader.LatestRelease("fp1"); !ok || m.Key != "k2" {
		t.Fatalf("after the second refresh: %+v, %v; want k2", m, ok)
	}
}

// TestBackendsByteIdentical is the differential proof: the same release
// stored through the disk and S3 backends yields byte-identical
// artifacts when read back via OpenRelease (the zero-copy path).
func TestBackendsByteIdentical(t *testing.T) {
	rel, _ := testRelease(t, 42)
	m := meta("diff-key", "fp-diff", 1.5)

	var sums []string
	for _, bc := range backendCases() {
		b := bc.open(t)
		s, err := OpenBackend(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutRelease(m, rel); err != nil {
			t.Fatal(err)
		}
		r, info, gotMeta, err := s.OpenRelease("diff-key")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != info.Size {
			t.Fatalf("%s: read %d bytes, info says %d", bc.name, len(data), info.Size)
		}
		if gotMeta.Epsilon != m.Epsilon || gotMeta.Key != m.Key {
			t.Fatalf("%s: meta = %+v", bc.name, gotMeta)
		}
		sums = append(sums, fmt.Sprintf("%x", sha256.Sum256(data)))
		s.Close()
	}
	if sums[0] != sums[1] {
		t.Fatalf("disk and s3 artifacts differ: %s vs %s", sums[0], sums[1])
	}
}

// TestStoreS3TornChunkMidManifest: a torn chunk between two complete
// ones (an S3-alike without atomic PUT can leave one, and later chunks
// keep arriving) is skipped instead of gluing onto the next chunk's
// line, so every node still opens the store with both charges; a later
// newline-terminated rewrite of the torn chunk is read by the next
// Refresh, and a terminated chunk that does not parse still refuses to
// open.
func TestStoreS3TornChunkMidManifest(t *testing.T) {
	srv := httptest.NewServer(s3stub.New("hcoc-test"))
	defer srv.Close()

	s := openStoreS3(t, srv)
	for i, eps := range []float64{1, 2} {
		if err := s.AppendCharge(meta(fmt.Sprintf("k%d", i+1), "fp1", eps)); err != nil {
			t.Fatal(err)
		}
	}
	chunks, err := s.b.List("manifest/")
	if err != nil || len(chunks) != 2 {
		t.Fatalf("manifest chunks = %v, %v; want 2", chunks, err)
	}
	// A key that sorts between the two charges' chunks.
	torn := strings.TrimSuffix(chunks[0].Key, ".jsonl") + "x.jsonl"
	if torn <= chunks[0].Key || torn >= chunks[1].Key {
		t.Fatalf("torn key %q does not sort between %q and %q", torn, chunks[0].Key, chunks[1].Key)
	}
	if err := s.b.Put(torn, []byte(`{"key":"k3","hierarchy":"fp1","eps`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openStoreS3(t, srv)
	defer s2.Close()
	if spent := s2.EpsilonByHierarchy()["fp1"]; spent != 3 {
		t.Fatalf("spend over [charge 1, torn, charge 2] = %g, want 3", spent)
	}

	line, err := json.Marshal(Meta{Kind: KindCharge, Key: "k3", Hierarchy: "fp1", Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.b.Put(torn, append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	if err := s2.Refresh(); err != nil {
		t.Fatal(err)
	}
	if spent := s2.EpsilonByHierarchy()["fp1"]; spent != 3.5 {
		t.Fatalf("spend after the torn chunk's rewrite = %g, want 3.5", spent)
	}

	if err := s2.b.Put(torn, []byte("{\"key\":\"k3\",\"hier\n")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Refresh(); err == nil || !strings.Contains(err.Error(), "is corrupt") {
		t.Fatalf("refresh over a terminated corrupt chunk: %v", err)
	}
	b, err := NewS3(S3Options{Endpoint: srv.URL, Bucket: "hcoc-test", Prefix: "store", AccessKey: "test", SecretKey: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	if s3, err := OpenBackend(b); err == nil {
		s3.Close()
		t.Fatal("a store with a terminated corrupt chunk opened")
	}
}
