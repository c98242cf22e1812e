package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrNoBlob reports a key the blob backend has no object for.
var ErrNoBlob = errors.New("store: blob not found")

// BlobInfo describes one stored object.
type BlobInfo struct {
	// Key is the object's store key (slash-separated, e.g.
	// "releases/<key>.json").
	Key string
	// Size is the object's length in bytes.
	Size int64
	// ModTime is when the object was last written. Backends with
	// coarser clocks (object stores) may truncate it.
	ModTime time.Time
}

// BlobStore is the pluggable persistence substrate under Store: a flat
// namespace of immutable, content-addressed objects plus one
// append-only manifest log. Keys are slash-separated paths
// ("releases/...", "events/..."); the manifest log is addressed
// through its own two methods because its semantics (ordered append,
// torn-tail tolerance) do not fit the object operations.
//
// Contract, pinned by the conformance suite in this package's tests:
//
//   - Put is atomic: a reader never observes a torn object, only the
//     old content or the complete new one. Concurrent Puts of the same
//     key leave one writer's complete payload.
//   - Get returns an io.ReadSeekCloser so artifacts can be served
//     zero-copy with HTTP range support; Get and Stat return ErrNoBlob
//     for absent keys.
//   - List returns every object under a "/"-terminated prefix in
//     lexicographic key order, paginating internally as needed.
//   - Delete of an absent key is a no-op (object-store semantics).
//   - AppendManifest durably appends one line to the log;
//     ManifestReader returns the concatenated log in append order.
//
// Implementations must be safe for concurrent use.
type BlobStore interface {
	// Name identifies the backend ("disk", "s3") for metrics and logs.
	Name() string
	// Shared reports whether other processes may write the same
	// backing store concurrently (a bucket shared by a fleet). Store
	// uses it to re-read the manifest on a miss instead of trusting
	// the boot-time snapshot.
	Shared() bool
	Put(key string, data []byte) error
	Get(key string) (io.ReadSeekCloser, BlobInfo, error)
	Stat(key string) (BlobInfo, error)
	List(prefix string) ([]BlobInfo, error)
	Delete(key string) error
	AppendManifest(line []byte) error
	ManifestReader() (io.ReadCloser, error)
	Close() error
}

// Disk is the local-filesystem BlobStore: crash-safe object writes via
// temp+rename in the object's directory, and a single fsynced
// append-only manifest file. It preserves the pre-BlobStore on-disk
// layout, so data directories written by earlier versions load
// unchanged.
type Disk struct {
	dir string

	mu       sync.Mutex
	manifest *os.File // open for append; nil after Close
}

// NewDisk creates (if needed) a disk backend rooted at dir. A torn
// final manifest line is cut off before the first append, which would
// otherwise be glued onto it.
func NewDisk(dir string) (*Disk, error) {
	for _, d := range []string{dir, filepath.Join(dir, "releases"), filepath.Join(dir, "hierarchies")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, "manifest.jsonl"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening manifest: %w", err)
	}
	if err := trimTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: trimming torn manifest tail: %w", err)
	}
	return &Disk{dir: dir, manifest: f}, nil
}

// trimTornTail truncates f after its last newline and fsyncs it, when
// f does not already end in one. An unterminated final line is a crash
// mid-append: the append never returned, so nothing acted on the
// entry, and replay already ignores it.
func trimTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	end := st.Size()
	buf := make([]byte, 4096)
	off := end
	for off > 0 {
		n := min(int64(len(buf)), off)
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			off += int64(i) + 1
			break
		}
	}
	if off == end {
		return nil
	}
	if err := f.Truncate(off); err != nil {
		return err
	}
	return f.Sync()
}

// Name implements BlobStore.
func (d *Disk) Name() string { return "disk" }

// Shared implements BlobStore: a local directory has one writer.
func (d *Disk) Shared() bool { return false }

// objectPath maps a blob key to its file path. Keys are validated
// against path traversal: they are internal (releases/, events/),
// but a cheap check keeps a future caller honest.
func (d *Disk) objectPath(key string) (string, error) {
	clean := path.Clean("/" + key)[1:]
	if clean != key || key == "" {
		return "", fmt.Errorf("store: bad blob key %q", key)
	}
	return filepath.Join(d.dir, filepath.FromSlash(key)), nil
}

// Put implements BlobStore with the temp+rename protocol: the object's
// bytes land completely or not at all, and the directory is fsynced so
// the rename itself survives a crash.
func (d *Disk) Put(key string, data []byte) error {
	p, err := d.objectPath(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = writeAtomic(p, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	return nil
}

// Get implements BlobStore; the returned *os.File seeks natively, so
// http.ServeContent serves it without buffering.
func (d *Disk) Get(key string) (io.ReadSeekCloser, BlobInfo, error) {
	p, err := d.objectPath(key)
	if err != nil {
		return nil, BlobInfo{}, err
	}
	f, err := os.Open(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, BlobInfo{}, ErrNoBlob
	}
	if err != nil {
		return nil, BlobInfo{}, fmt.Errorf("store: opening %s: %w", key, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, BlobInfo{}, fmt.Errorf("store: %w", err)
	}
	return f, BlobInfo{Key: key, Size: st.Size(), ModTime: st.ModTime()}, nil
}

// Stat implements BlobStore.
func (d *Disk) Stat(key string) (BlobInfo, error) {
	p, err := d.objectPath(key)
	if err != nil {
		return BlobInfo{}, err
	}
	st, err := os.Stat(p)
	if errors.Is(err, os.ErrNotExist) {
		return BlobInfo{}, ErrNoBlob
	}
	if err != nil {
		return BlobInfo{}, fmt.Errorf("store: %w", err)
	}
	return BlobInfo{Key: key, Size: st.Size(), ModTime: st.ModTime()}, nil
}

// List implements BlobStore over one directory level — every key this
// package writes is "<dir>/<name>", and temp files from in-flight
// atomic writes are skipped.
func (d *Disk) List(prefix string) ([]BlobInfo, error) {
	dir := filepath.Join(d.dir, filepath.FromSlash(strings.TrimSuffix(prefix, "/")))
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []BlobInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // racing deletion
		}
		out = append(out, BlobInfo{
			Key:     path.Join(strings.TrimSuffix(prefix, "/"), name),
			Size:    fi.Size(),
			ModTime: fi.ModTime(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Delete implements BlobStore; deleting an absent key is a no-op.
func (d *Disk) Delete(key string) error {
	p, err := d.objectPath(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: deleting %s: %w", key, err)
	}
	return nil
}

// AppendManifest implements BlobStore: one fsynced append, serialized
// so concurrent lines never interleave bytes.
func (d *Disk) AppendManifest(line []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.manifest == nil {
		return fmt.Errorf("store: backend is closed")
	}
	if _, err := d.manifest.Write(line); err != nil {
		return fmt.Errorf("store: appending manifest: %w", err)
	}
	if err := d.manifest.Sync(); err != nil {
		return fmt.Errorf("store: syncing manifest: %w", err)
	}
	return nil
}

// ManifestReader implements BlobStore; an absent manifest reads as
// empty (a fresh data dir).
func (d *Disk) ManifestReader() (io.ReadCloser, error) {
	f, err := os.Open(filepath.Join(d.dir, "manifest.jsonl"))
	if errors.Is(err, os.ErrNotExist) {
		return io.NopCloser(bytes.NewReader(nil)), nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: opening manifest: %w", err)
	}
	return f, nil
}

// Close implements BlobStore.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.manifest == nil {
		return nil
	}
	err := d.manifest.Close()
	d.manifest = nil
	return err
}

// writeAtomic writes data to path via a temp file in the same
// directory, fsyncing the file and its directory so a crash leaves
// either the old state or the complete new file, never a torn one.
func writeAtomic(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
