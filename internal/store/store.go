package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
	"sync"
	"time"

	"hcoc"
)

// ErrNotFound reports a key the store has no artifact for.
var ErrNotFound = errors.New("store: release not found")

// Manifest entry kinds. The manifest is both the artifact index and the
// durable privacy ledger; the two concerns use different entry kinds so
// that spend is recorded before noise is drawn, not after the artifact
// happens to land on disk.
const (
	// KindCharge records an admitted computation's epsilon, appended
	// BEFORE the noise is drawn (write-ahead): a crash mid-computation
	// leaves the spend on the books, never the reverse.
	KindCharge = "charge"
	// KindRefund returns a charge whose computation failed before
	// drawing noise (negative spend effect).
	KindRefund = "refund"
	// KindRelease indexes a stored artifact. It is spend-neutral — its
	// computation's epsilon was already recorded by a KindCharge entry.
	// The empty string decodes as KindRelease.
	KindRelease = "release"
	// KindEvent indexes one appended hierarchy event chunk: Hierarchy is
	// the event log's id and Seq the chunk's 1-based sequence number.
	// Event entries are discovery and provenance — replay reads the
	// chunk objects under events/<log>/ — and are spend-neutral.
	KindEvent = "event"
)

// Meta is one manifest entry. KindRelease entries carry artifact
// provenance; KindCharge/KindRefund entries carry the privacy ledger.
// Summing Epsilon per Hierarchy over charge (+) and refund (-) entries
// reconstructs the spend after a restart; reads append nothing.
type Meta struct {
	// Kind classifies the entry; empty means KindRelease.
	Kind string `json:"kind,omitempty"`
	// Key is the release key (the engine's content address).
	Key string `json:"key"`
	// Hierarchy is the fingerprint of the tree the release was computed
	// from (hierarchy.FingerprintTree).
	Hierarchy string `json:"hierarchy"`
	// Algorithm names the release algorithm ("topdown"/"bottomup").
	Algorithm string `json:"algorithm"`
	// Epsilon is the privacy budget the computation consumed.
	Epsilon float64 `json:"epsilon"`
	// CostBytes is the release's resident cost (SparseHistograms.CostBytes).
	CostBytes int64 `json:"cost_bytes"`
	// DurationMS is the wall time of the computation in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// CreatedAt is when the artifact was stored.
	CreatedAt time.Time `json:"created_at"`
	// Seq is the 1-based event sequence number of a KindEvent entry
	// (zero otherwise).
	Seq int64 `json:"seq,omitempty"`
}

// storedGroup is the on-disk shape of one group in a legacy hierarchy
// file, matching the HTTP upload schema.
type storedGroup struct {
	Path []string `json:"path"`
	Size int64    `json:"size"`
}

// hierarchyFile is the on-disk shape of a hierarchy upload as stores
// from before the event log persisted it, under
// hierarchies/<fingerprint>.json.
type hierarchyFile struct {
	Root   string        `json:"root"`
	Groups []storedGroup `json:"groups"`
}

// HierarchyRecord is one persisted hierarchy: everything needed to
// rebuild its tree (and re-derive its fingerprint) on a warm start.
type HierarchyRecord struct {
	Fingerprint string
	Root        string
	Groups      []hcoc.Group
}

// releaseKey maps a release key to its blob key.
func releaseKey(key string) string { return "releases/" + key + ".json" }

// Store is a durable release store over a pluggable BlobStore backend.
// It keeps an in-memory index replayed from the backend's manifest log;
// on a Shared backend the index may lag other writers, so a miss Stats
// the key's artifact and, only when another writer has put it, runs a
// Refresh before being reported. It is safe for concurrent use.
type Store struct {
	b BlobStore

	// appendMu orders manifest appends with Refresh's read-and-swap, so
	// a refresh never swaps out an entry appended while it read. Index
	// readers take only mu and never wait on backend I/O.
	appendMu sync.Mutex

	mu  sync.Mutex
	idx *index
}

// index is the in-memory replay of the manifest log.
type index struct {
	metas map[string]Meta // latest entry per key
	order []string        // keys in first-appearance manifest order
	// byHierarchy lists each hierarchy fingerprint's keys in
	// first-appearance manifest order. A key is a content address that
	// covers its fingerprint, so it never moves to another list.
	byHierarchy map[string][]string
	spent       map[string]float64
	events      map[string]int64 // event log id -> highest appended Seq
}

func newIndex() *index {
	return &index{
		metas:       make(map[string]Meta),
		byHierarchy: make(map[string][]string),
		spent:       make(map[string]float64),
		events:      make(map[string]int64),
	}
}

// record indexes one manifest entry.
func (x *index) record(m Meta) {
	switch m.Kind {
	case KindCharge:
		x.spent[m.Hierarchy] += m.Epsilon
	case KindRefund:
		x.spent[m.Hierarchy] -= m.Epsilon
	case KindEvent:
		if m.Seq > x.events[m.Hierarchy] {
			x.events[m.Hierarchy] = m.Seq
		}
	default: // KindRelease / legacy empty
		if _, ok := x.metas[m.Key]; !ok {
			x.order = append(x.order, m.Key)
			x.byHierarchy[m.Hierarchy] = append(x.byHierarchy[m.Hierarchy], m.Key)
		}
		x.metas[m.Key] = m
	}
}

// Open creates (if needed) and loads a local-disk store rooted at dir,
// replaying the manifest into the in-memory index. A truncated final
// manifest line — the signature of a crash mid-append — is ignored;
// corruption anywhere else is an error.
func Open(dir string) (*Store, error) {
	b, err := NewDisk(dir)
	if err != nil {
		return nil, err
	}
	s, err := OpenBackend(b)
	if err != nil {
		b.Close()
		return nil, err
	}
	return s, nil
}

// OpenBackend loads a store over an already-constructed backend,
// replaying its manifest. The store takes ownership of the backend:
// Close closes it.
func OpenBackend(b BlobStore) (*Store, error) {
	s := &Store{b: b}
	idx, err := s.loadManifest()
	if err != nil {
		return nil, err
	}
	s.idx = idx
	return s, nil
}

// Backend names the blob backend ("disk", "s3") for metrics and logs.
func (s *Store) Backend() string { return s.b.Name() }

// Shared reports whether the backend may be written by other processes
// concurrently (see BlobStore.Shared).
func (s *Store) Shared() bool { return s.b.Shared() }

// loadManifest replays the backend's manifest log into a fresh index.
// It tolerates a torn final line (crash mid-append) and rejects
// corruption anywhere else. An append writes its newline last, so a
// torn line is the one unterminated line, the last; a complete line
// that does not parse is corruption even at the end, where tolerating
// it would let the next append turn it into a store that cannot open.
func (s *Store) loadManifest() (*index, error) {
	r, err := s.b.ManifestReader()
	if err != nil {
		return nil, err
	}
	defer r.Close()

	idx := newIndex()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	terminated := false // whether the line just scanned ended in '\n'
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		terminated = adv > 0 && data[adv-1] == '\n'
		return adv, tok, err
	})
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var m Meta
		if err := json.Unmarshal(raw, &m); err != nil || m.Key == "" {
			if !terminated {
				break // a torn append
			}
			return nil, fmt.Errorf("store: manifest line %d is corrupt: %q", line, raw)
		}
		idx.record(m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	}
	return idx, nil
}

// Refresh re-reads the whole manifest log and atomically swaps the
// in-memory index. On a shared backend this picks up entries written by
// other processes since boot; replaying from scratch (rather than
// re-recording on top of the live index) keeps charge totals exact.
// Local appends wait for a refresh in progress, so the swapped-in index
// holds every entry this store has appended.
func (s *Store) Refresh() error {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	idx, err := s.loadManifest()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.idx = idx
	s.mu.Unlock()
	return nil
}

// appendEntry appends one manifest line durably, then indexes it.
func (s *Store) appendEntry(m Meta) error {
	line, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: encoding manifest entry: %w", err)
	}
	line = append(line, '\n')

	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	if err := s.b.AppendManifest(line); err != nil {
		return err
	}
	s.mu.Lock()
	s.idx.record(m)
	s.mu.Unlock()
	return nil
}

// AppendCharge durably records an admitted computation's epsilon. Call
// it BEFORE drawing noise: if the charge cannot be made durable, the
// caller must refuse to compute, or a restart would forget the spend.
func (s *Store) AppendCharge(m Meta) error {
	if m.Epsilon <= 0 {
		return fmt.Errorf("store: charge epsilon must be positive, got %g", m.Epsilon)
	}
	m.Kind = KindCharge
	return s.appendEntry(m)
}

// AppendRefund durably returns a charge whose computation failed before
// drawing noise. A failed refund append leaves the spend on the books —
// the conservative direction.
func (s *Store) AppendRefund(m Meta) error {
	if m.Epsilon <= 0 {
		return fmt.Errorf("store: refund epsilon must be positive, got %g", m.Epsilon)
	}
	m.Kind = KindRefund
	return s.appendEntry(m)
}

// PutRelease durably stores a completed release and appends its
// (spend-neutral) manifest entry — the computation's epsilon was
// already recorded by AppendCharge. The artifact write is atomic and
// lands before the manifest line, so every indexed key has a complete
// artifact in the backend. Re-putting an existing key (a recomputation
// after artifact loss) overwrites the artifact and appends a second
// entry.
func (s *Store) PutRelease(m Meta, rel hcoc.SparseHistograms) error {
	if m.Key == "" {
		return fmt.Errorf("store: empty release key")
	}
	m.Kind = KindRelease
	var buf bytes.Buffer
	if err := hcoc.WriteReleaseSparse(&buf, rel, m.Epsilon); err != nil {
		return fmt.Errorf("store: encoding release %s: %w", m.Key, err)
	}
	if err := s.b.Put(releaseKey(m.Key), buf.Bytes()); err != nil {
		return fmt.Errorf("store: writing release %s: %w", m.Key, err)
	}
	return s.appendEntry(m)
}

// meta looks up a key's manifest entry. On a shared backend another
// process may have released the key since our last replay, so a miss
// first Stats the key's artifact (one HEAD on S3). PutRelease, the only
// writer of release lines, puts the artifact before its line and
// nothing deletes artifacts, so ErrNoBlob proves no line indexes the
// key: the miss stands without reading the manifest. A found artifact,
// or any other Stat error, re-reads the manifest once before giving up.
func (s *Store) meta(key string) (Meta, bool) {
	s.mu.Lock()
	m, ok := s.idx.metas[key]
	s.mu.Unlock()
	if ok || !s.b.Shared() {
		return m, ok
	}
	if _, err := s.b.Stat(releaseKey(key)); errors.Is(err, ErrNoBlob) {
		return Meta{}, false
	}
	if err := s.Refresh(); err != nil {
		return Meta{}, false
	}
	s.mu.Lock()
	m, ok = s.idx.metas[key]
	s.mu.Unlock()
	return m, ok
}

// GetRelease loads a stored release and its manifest entry. It returns
// ErrNotFound for keys the manifest does not index.
func (s *Store) GetRelease(key string) (hcoc.SparseHistograms, Meta, error) {
	m, ok := s.meta(key)
	if !ok {
		return nil, Meta{}, ErrNotFound
	}
	f, _, err := s.b.Get(releaseKey(key))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("store: opening release %s: %w", key, err)
	}
	defer f.Close()
	rel, epsilon, err := hcoc.ReadReleaseSparse(f)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("store: release %s: %w", key, err)
	}
	if epsilon != m.Epsilon {
		return nil, Meta{}, fmt.Errorf("store: release %s artifact epsilon %g disagrees with manifest %g", key, epsilon, m.Epsilon)
	}
	return rel, m, nil
}

// OpenRelease opens a stored release artifact for streaming without
// decoding it: the returned reader seeks, so callers can serve it
// zero-copy with HTTP range support (http.ServeContent). The caller
// must close the reader. Returns ErrNotFound for unindexed keys.
func (s *Store) OpenRelease(key string) (io.ReadSeekCloser, BlobInfo, Meta, error) {
	m, ok := s.meta(key)
	if !ok {
		return nil, BlobInfo{}, Meta{}, ErrNotFound
	}
	f, info, err := s.b.Get(releaseKey(key))
	if errors.Is(err, ErrNoBlob) {
		return nil, BlobInfo{}, Meta{}, ErrNotFound
	}
	if err != nil {
		return nil, BlobInfo{}, Meta{}, fmt.Errorf("store: opening release %s: %w", key, err)
	}
	return f, info, m, nil
}

// Len returns the number of distinct releases indexed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx.metas)
}

// List returns the latest manifest entry for every stored release, in
// first-appearance order.
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.idx.order))
	for _, key := range s.idx.order {
		out = append(out, s.idx.metas[key])
	}
	return out
}

// LatestRelease returns the newest stored release of a hierarchy
// fingerprint by CreatedAt, the first in manifest order among equally
// new ones. Like List, it reads the index as last replayed.
func (s *Store) LatestRelease(fingerprint string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var latest Meta
	keys := s.idx.byHierarchy[fingerprint]
	for i, key := range keys {
		if m := s.idx.metas[key]; i == 0 || m.CreatedAt.After(latest.CreatedAt) {
			latest = m
		}
	}
	return latest, len(keys) > 0
}

// EpsilonByHierarchy returns the cumulative epsilon spent per hierarchy
// fingerprint: the sum of charge entries minus refunds — including
// repeated computations of the same key, each of which drew noise.
// This is what the engine replays into its budget ledger on a warm
// start.
func (s *Store) EpsilonByHierarchy() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64, len(s.idx.spent))
	for fp, eps := range s.idx.spent {
		out[fp] = eps
	}
	return out
}

// AppendEvent durably records one appended hierarchy event chunk in the
// manifest: Hierarchy is the event log id and Seq the chunk's 1-based
// sequence number. Call it AFTER the chunk object itself is durable —
// the manifest entry is discovery, the chunk is truth; a crash between
// the two leaves an unindexed-but-replayable chunk, never a dangling
// index entry.
func (s *Store) AppendEvent(m Meta) error {
	if m.Hierarchy == "" {
		return fmt.Errorf("store: event entry needs a hierarchy id")
	}
	if m.Seq <= 0 {
		return fmt.Errorf("store: event seq must be positive, got %d", m.Seq)
	}
	m.Kind = KindEvent
	if m.Key == "" {
		m.Key = fmt.Sprintf("event/%s/%d", m.Hierarchy, m.Seq)
	}
	return s.appendEntry(m)
}

// EventLogs returns the highest appended event sequence per event log
// id, replayed from KindEvent manifest entries — the discovery index a
// warm start uses to find logs to replay.
func (s *Store) EventLogs() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.idx.events))
	for id, seq := range s.idx.events {
		out[id] = seq
	}
	return out
}

// Blob exposes the underlying blob backend for subsystems — the event
// log — that persist their own objects alongside releases while sharing
// the store's manifest for discovery.
func (s *Store) Blob() BlobStore { return s.b }

// Hierarchies loads every hierarchy persisted by a store from before
// the event log; nothing writes them any more, and the event-log
// manager migrates them at start-up. Fingerprints come from the object
// names; callers that rebuild trees should re-derive and verify them.
func (s *Store) Hierarchies() ([]HierarchyRecord, error) {
	infos, err := s.b.List("hierarchies/")
	if err != nil {
		return nil, err
	}
	var out []HierarchyRecord
	for _, info := range infos {
		name := path.Base(info.Key)
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		f, _, err := s.b.Get(info.Key)
		if err != nil {
			return nil, fmt.Errorf("store: hierarchy %s: %w", name, err)
		}
		var hf hierarchyFile
		err = json.NewDecoder(f).Decode(&hf)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("store: hierarchy file %s: %w", name, err)
		}
		rec := HierarchyRecord{
			Fingerprint: strings.TrimSuffix(name, ".json"),
			Root:        hf.Root,
			Groups:      make([]hcoc.Group, len(hf.Groups)),
		}
		for i, g := range hf.Groups {
			rec.Groups[i] = hcoc.Group{Path: g.Path, Size: g.Size}
		}
		out = append(out, rec)
	}
	return out, nil
}

// Close releases the backend. The store must not be used after.
func (s *Store) Close() error {
	return s.b.Close()
}
