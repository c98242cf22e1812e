package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hcoc"
)

func testRelease(t *testing.T, seed int64) (hcoc.SparseHistograms, *hcoc.Tree) {
	t.Helper()
	var groups []hcoc.Group
	for i := 0; i < 30; i++ {
		groups = append(groups, hcoc.Group{Path: []string{"CA"}, Size: int64(i % 5)})
		groups = append(groups, hcoc.Group{Path: []string{"WA"}, Size: int64(i % 3)})
	}
	tree, err := hcoc.BuildHierarchy("US", groups)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := hcoc.ReleaseSparse(tree, hcoc.Options{Epsilon: 1, K: 50, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return rel, tree
}

func meta(key, fp string, epsilon float64) Meta {
	return Meta{
		Key: key, Hierarchy: fp, Algorithm: "topdown",
		Epsilon: epsilon, CostBytes: 123, DurationMS: 4.5,
		CreatedAt: time.Unix(1700000000, 0).UTC(),
	}
}

// indexed reports whether s serves key, failing the test on any error
// other than ErrNotFound.
func indexed(t *testing.T, s *Store, key string) bool {
	t.Helper()
	_, _, err := s.GetRelease(key)
	if err != nil && !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	return err == nil
}

func TestPutGetRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rel, _ := testRelease(t, 1)

	if _, _, err := s.GetRelease("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if err := s.PutRelease(meta("k1", "fp1", 1), rel); err != nil {
		t.Fatal(err)
	}
	if !indexed(t, s, "k1") || indexed(t, s, "k2") {
		t.Fatal("indexed keys are wrong")
	}
	got, m, err := s.GetRelease("k1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Key != "k1" || m.Hierarchy != "fp1" || m.Epsilon != 1 {
		t.Fatalf("meta = %+v", m)
	}
	for path, h := range rel {
		if !h.Equal(got[path]) {
			t.Fatalf("stored release differs at %q", path)
		}
	}
}

func TestReopenReplaysManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := testRelease(t, 1)
	rel2, _ := testRelease(t, 2)
	// The engine's protocol: charge ahead of the draw, then store the
	// artifact (release entries are spend-neutral).
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
	// A recomputation of an existing key appends a second charge and
	// release entry: the artifact is overwritten but the spend adds up.
	put(meta("k1", "fp1", 0.5), rel2)
	// A failed computation: charge, then refund — net zero.
	if err := s.AppendCharge(meta("k9", "fp1", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRefund(meta("k9", "fp1", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("reopened store indexes %d releases, want 3", s2.Len())
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

// TestLatestRelease: a fingerprint's newest artifact by CreatedAt wins,
// the first in manifest order among equally new ones, a re-put key
// becomes the newest, and a reopen replays the same answers.
func TestLatestRelease(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := testRelease(t, 1)
	put := func(key, fp string, at int64) {
		t.Helper()
		m := meta(key, fp, 1)
		m.CreatedAt = time.Unix(at, 0).UTC()
		if err := s.PutRelease(m, rel); err != nil {
			t.Fatal(err)
		}
	}
	latest := func(s *Store, fp string) string {
		m, ok := s.LatestRelease(fp)
		if ok != (m.Key != "") {
			t.Fatalf("LatestRelease(%q) = %+v, %v", fp, m, ok)
		}
		return m.Key
	}
	want := func(fp, key string) {
		t.Helper()
		if got := latest(s, fp); got != key {
			t.Fatalf("latest of %s = %q, want %q", fp, got, key)
		}
	}
	want("fp1", "")
	put("a", "fp1", 100)
	put("b", "fp1", 300)
	put("c", "fp1", 200)
	put("d", "fp2", 400)
	want("fp1", "b")
	put("e", "fp1", 300) // as new as b, later in the manifest
	want("fp1", "b")
	put("a", "fp1", 500) // a re-put key is the newest
	want("fp1", "a")
	want("fp2", "d")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want("fp1", "a")
	want("fp2", "d")
}

// TestTornManifestLine simulates a crash mid-append: the final,
// incomplete manifest line is dropped on reopen, earlier entries
// survive, and entries appended after recovery survive later reopens.
func TestTornManifestLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := testRelease(t, 1)
	if err := s.PutRelease(meta("k1", "fp1", 1), rel); err != nil {
		t.Fatal(err)
	}
	s.Close()

	f, err := os.OpenFile(filepath.Join(dir, "manifest.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"k2","hier`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 || !indexed(t, s2, "k1") || indexed(t, s2, "k2") {
		t.Fatalf("store after torn line: len=%d", s2.Len())
	}
	// A charge and a put after recovery append cleanly: they must not
	// be glued onto the torn bytes and lost at the next reopen.
	if err := s2.AppendCharge(meta("k3", "fp1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s2.PutRelease(meta("k3", "fp1", 1), rel); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after recovery: %v", err)
	}
	if reopened.Len() != 2 || !indexed(t, reopened, "k1") || !indexed(t, reopened, "k3") {
		t.Fatalf("store after recovery and reopen: len=%d", reopened.Len())
	}
	if spent := reopened.EpsilonByHierarchy(); spent["fp1"] != 1 {
		t.Fatalf("spent = %v, want the charge made after recovery, fp1=1", spent)
	}
	if err := reopened.AppendCharge(meta("k4", "fp1", 1)); err != nil {
		t.Fatal(err)
	}
	reopened.Close()

	last, err := Open(dir)
	if err != nil {
		t.Fatalf("third open after recovery: %v", err)
	}
	defer last.Close()
	if spent := last.EpsilonByHierarchy(); spent["fp1"] != 2 {
		t.Fatalf("spent = %v, want fp1=2", spent)
	}
}

// gatedBlob is a BlobStore whose ManifestReader, once armed, takes its
// snapshot of the manifest, reports it on snapped, and returns it only
// after release is closed: a refresh held open mid-read.
type gatedBlob struct {
	BlobStore
	armed   atomic.Bool
	snapped chan struct{}
	release chan struct{}
}

func (g *gatedBlob) ManifestReader() (io.ReadCloser, error) {
	r, err := g.BlobStore.ManifestReader()
	if err != nil || !g.armed.Load() {
		return r, err
	}
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		return nil, err
	}
	close(g.snapped)
	<-g.release
	return io.NopCloser(bytes.NewReader(data)), nil
}

// TestRefreshKeepsConcurrentAppend: an entry appended while a Refresh
// reads the manifest must still be indexed after the refresh swaps its
// result in.
func TestRefreshKeepsConcurrentAppend(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedBlob{BlobStore: disk, snapped: make(chan struct{}), release: make(chan struct{})}
	s, err := OpenBackend(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rel, _ := testRelease(t, 1)

	g.armed.Store(true)
	refreshed := make(chan error, 1)
	go func() { refreshed <- s.Refresh() }()
	select {
	case <-g.snapped:
	case err := <-refreshed:
		t.Fatalf("refresh returned before taking its snapshot: %v", err)
	}

	appended := make(chan error, 1)
	go func() {
		err := s.AppendCharge(meta("k1", "fp1", 1))
		if err == nil {
			err = s.PutRelease(meta("k1", "fp1", 1), rel)
		}
		appended <- err
	}()
	// Give the append time to land inside the refresh's window. A store
	// that orders appends after the refresh blocks it instead; either
	// way the refresh is released next.
	var appendErr error
	landed := false
	select {
	case appendErr = <-appended:
		landed = true
	case <-time.After(200 * time.Millisecond):
	}
	close(g.release)
	if err := <-refreshed; err != nil {
		t.Fatal(err)
	}
	if !landed {
		appendErr = <-appended
	}
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after a refresh raced an append, want 1", s.Len())
	}
	if spent := s.EpsilonByHierarchy(); spent["fp1"] != 1 {
		t.Fatalf("spent = %v after a refresh raced an append, want fp1=1", spent)
	}
}

// TestCorruptManifestMidFile: garbage that is not the final line is
// real corruption and must refuse to open, not be silently skipped.
func TestCorruptManifestMidFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := testRelease(t, 1)
	if err := s.PutRelease(meta("k1", "fp1", 1), rel); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, "manifest.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json\n")
	f.WriteString(`{"key":"k2","hierarchy":"fp1","epsilon":1}` + "\n")
	f.Close()

	if _, err := Open(dir); err == nil {
		t.Fatal("mid-file corruption opened cleanly")
	}
}

// TestCorruptManifestFinalLine: a complete (newline-terminated) final
// line that does not parse is corruption too, not a torn append: an
// append writes its newline last.
func TestCorruptManifestFinalLine(t *testing.T) {
	dir := t.TempDir()
	valid := `{"key":"k1","hierarchy":"fp1","epsilon":1}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), []byte(valid+"not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("a corrupt complete final line opened cleanly")
	}
}

// TestHierarchyRoundtrip pins the read side of the legacy layout: a
// hierarchies/<fp>.json object loads back as its root and groups.
func TestHierarchyRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A hierarchy object as stores from before the event log wrote it.
	legacy := `{"root":"US","groups":[{"path":["CA","Alameda"],"size":3},{"path":["WA","King"],"size":2}]}` + "\n"
	if err := s.Blob().Put("hierarchies/fp-abc.json", []byte(legacy)); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Hierarchies()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d hierarchies, want 1", len(recs))
	}
	r := recs[0]
	if r.Fingerprint != "fp-abc" || r.Root != "US" || len(r.Groups) != 2 {
		t.Fatalf("record = %+v", r)
	}
	if r.Groups[0].Path[1] != "Alameda" || r.Groups[0].Size != 3 {
		t.Fatalf("groups = %+v", r.Groups)
	}
	// The rebuilt tree must reproduce the original content.
	tree, err := hcoc.BuildHierarchy(r.Root, r.Groups)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.G() != 2 {
		t.Fatalf("rebuilt tree has %d groups, want 2", tree.Root.G())
	}
}

// TestArtifactEpsilonMismatch: an artifact whose recorded epsilon
// disagrees with the manifest is surfaced, not served.
func TestArtifactEpsilonMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rel, _ := testRelease(t, 1)
	if err := s.PutRelease(meta("k1", "fp1", 1), rel); err != nil {
		t.Fatal(err)
	}
	// Overwrite the artifact with a different epsilon out-of-band.
	var buf bytes.Buffer
	if err := hcoc.WriteReleaseSparse(&buf, rel, 9); err != nil {
		t.Fatal(err)
	}
	if err := s.b.Put(releaseKey("k1"), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetRelease("k1"); err == nil {
		t.Fatal("epsilon mismatch served cleanly")
	}
}
