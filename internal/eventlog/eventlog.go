package eventlog

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"hcoc/internal/hierarchy"
	"hcoc/internal/histogram"
	"hcoc/internal/store"
)

// Event kinds.
const (
	// KindSnapshot replaces the whole hierarchy: root name plus the full
	// group list. The first event of every log is a snapshot.
	KindSnapshot = "snapshot"
	// KindDelta mutates the current hierarchy: groups added, groups
	// removed, and group-size drift.
	KindDelta = "delta"
)

// Group is one group record in an event: the leaf path (region names
// below the root, outermost first) and the group's size.
type Group struct {
	Path []string `json:"path"`
	Size int64    `json:"size"`
}

// Drift moves Count groups at a leaf from one size to another — the
// "count drift" shape of a daily refresh, cheaper to express than a
// matched remove+add pair.
type Drift struct {
	Path  []string `json:"path"`
	From  int64    `json:"from"`
	To    int64    `json:"to"`
	Count int64    `json:"count"`
}

// Event is one log entry. Exactly one of the snapshot fields (Root,
// Groups) or the delta fields (Add, Remove, Drift) is used, selected by
// Type.
type Event struct {
	Type   string  `json:"type"`
	Root   string  `json:"root,omitempty"`
	Groups []Group `json:"groups,omitempty"`
	Add    []Group `json:"add,omitempty"`
	Remove []Group `json:"remove,omitempty"`
	Drift  []Drift `json:"drift,omitempty"`
}

// Version identifies one immutable hierarchy version: the 1-based
// event sequence that produced it and the content fingerprint
// (hierarchy.FingerprintTree) of the rebuilt tree.
type Version struct {
	Seq         int64     `json:"seq"`
	Fingerprint string    `json:"fingerprint"`
	CreatedAt   time.Time `json:"created_at"`
	Type        string    `json:"type"`
	Nodes       int       `json:"nodes"`
	Groups      int64     `json:"groups"`
}

// ConflictError reports an If-Match precondition failure: the caller
// appended against a fingerprint that is no longer the head — a
// concurrent writer won.
type ConflictError struct {
	Log  string
	Head Version
	// Given is the fingerprint the caller expected to be head.
	Given string
}

// Error names the winning head and the stale fingerprint the caller
// presented.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("eventlog: log %s head is version %d (fingerprint %s), not %s",
		e.Log, e.Head.Seq, e.Head.Fingerprint, e.Given)
}

// chunk is the on-disk shape of one appended event. The fingerprint is
// recorded at append time so replay can verify the deterministic
// rebuild instead of trusting it.
type chunk struct {
	Seq         int64     `json:"seq"`
	Fingerprint string    `json:"fingerprint"`
	CreatedAt   time.Time `json:"created_at"`
	Event       Event     `json:"event"`
}

// chunkKey maps a log id and sequence number to its blob key.
func chunkKey(id string, seq int64) string {
	return fmt.Sprintf("events/%s/%012d.json", id, seq)
}

// leafNames normalizes an event path into the region names of its
// leaf: names are joined with "/" and split again, so ["a/b"] and
// ["a", "b"] name the same leaf. The path is returned as is when no
// name contains "/".
func leafNames(path []string) []string {
	for _, name := range path {
		if strings.Contains(name, "/") {
			return strings.Split(strings.Join(path, "/"), "/")
		}
	}
	if len(path) == 0 {
		return []string{""}
	}
	return path
}

// apply folds one event into the tree it follows (nil before the first
// snapshot) and returns the next version's tree. cur is never mutated,
// so a failed apply leaves the log untouched. A snapshot builds a new
// tree; a delta edits cur's leaves copy-on-write (see applyDelta).
func apply(cur *hierarchy.Tree, ev Event) (*hierarchy.Tree, error) {
	switch ev.Type {
	case KindSnapshot:
		if ev.Root == "" {
			return nil, errors.New("eventlog: snapshot event needs a root name")
		}
		if len(ev.Groups) == 0 {
			return nil, errors.New("eventlog: snapshot event needs at least one group")
		}
		b := hierarchy.NewBuilder(ev.Root)
		for _, g := range ev.Groups {
			if err := checkAdd(g.Path, g.Size); err != nil {
				return nil, err
			}
			b.AddGroups(leafNames(g.Path), g.Size, 1)
		}
		return b.Build()
	case KindDelta:
		if len(ev.Add)+len(ev.Remove)+len(ev.Drift) == 0 {
			return nil, errors.New("eventlog: delta event is empty")
		}
		return applyDelta(cur, ev)
	default:
		return nil, fmt.Errorf("eventlog: unknown event type %q", ev.Type)
	}
}

func checkAdd(path []string, size int64) error {
	if len(path) == 0 {
		return errors.New("eventlog: group path is empty")
	}
	if size < 0 {
		return fmt.Errorf("eventlog: group size %d is negative", size)
	}
	return nil
}

// leafEdit is one leaf a delta touches: a private copy of its
// histogram, with the edits so far applied.
type leafEdit struct {
	key   string          // the event path joined with "/"
	names []string        // the leaf's region names below the root
	node  *hierarchy.Node // the leaf in the current tree; nil if absent
	hist  histogram.Hist
}

// cellEdit adds n groups (n < 0 removes) of one size at a leaf.
type cellEdit struct {
	leaf *leafEdit
	size int64
	n    int64
}

// delta folds one delta event's edits: removes, then drifts, then adds,
// each checked against the leaf as the earlier edits left it.
type delta struct {
	cur    *hierarchy.Tree
	leaves map[string]*leafEdit
	cells  []cellEdit
	groups int64 // net groups added
}

func (d *delta) leaf(path []string) *leafEdit {
	key := strings.Join(path, "/")
	if e, ok := d.leaves[key]; ok {
		return e
	}
	e := &leafEdit{key: key, names: leafNames(path)}
	n := d.cur.Root
	for _, name := range e.names {
		if n = n.Child(name); n == nil {
			break
		}
	}
	if n != nil && n.IsLeaf() {
		e.node, e.hist = n, n.Hist.Clone()
	}
	d.leaves[key] = e
	return e
}

func (d *delta) edit(e *leafEdit, size, n int64) {
	if grow := size + 1 - int64(len(e.hist)); grow > 0 {
		e.hist = append(e.hist, make(histogram.Hist, grow)...)
	}
	e.hist[size] += n
	d.cells = append(d.cells, cellEdit{leaf: e, size: size, n: n})
	d.groups += n
}

func (d *delta) remove(path []string, size, n int64) error {
	e := d.leaf(path)
	var have int64
	if size >= 0 && size < int64(len(e.hist)) {
		have = e.hist[size]
	}
	if have < n {
		return fmt.Errorf("eventlog: leaf %q has %d groups of size %d, cannot remove %d",
			e.key, have, size, n)
	}
	d.edit(e, size, -n)
	return nil
}

func (d *delta) add(path []string, size, n int64) error {
	if err := checkAdd(path, size); err != nil {
		return err
	}
	d.edit(d.leaf(path), size, n)
	return nil
}

// applyDelta applies a delta to cur. When every touched leaf exists and
// keeps at least one group, the tree keeps its shape: the result is
// cur.WithHists, with new histograms only on the touched root-to-leaf
// paths and every other node's histogram shared with cur. A delta that
// adds or empties a leaf rebuilds the tree from its leaf histograms.
func applyDelta(cur *hierarchy.Tree, ev Event) (*hierarchy.Tree, error) {
	d := &delta{cur: cur, leaves: make(map[string]*leafEdit)}
	for _, g := range ev.Remove {
		if err := d.remove(g.Path, g.Size, 1); err != nil {
			return nil, err
		}
	}
	for _, dr := range ev.Drift {
		if dr.Count <= 0 {
			return nil, fmt.Errorf("eventlog: drift count must be positive, got %d", dr.Count)
		}
		if dr.From == dr.To {
			return nil, fmt.Errorf("eventlog: drift from and to are both %d", dr.From)
		}
		if err := d.remove(dr.Path, dr.From, dr.Count); err != nil {
			return nil, err
		}
		if err := d.add(dr.Path, dr.To, dr.Count); err != nil {
			return nil, err
		}
	}
	for _, g := range ev.Add {
		if err := d.add(g.Path, g.Size, 1); err != nil {
			return nil, err
		}
	}
	if cur.Root.G()+d.groups == 0 {
		return nil, errors.New("eventlog: delta would leave the hierarchy empty")
	}
	structural := false
	for _, e := range d.leaves {
		e.hist = e.hist.Trim()
		if e.node == nil || len(e.hist) == 0 {
			structural = true
		}
	}
	if structural {
		return d.rebuild()
	}
	hists := make(map[*hierarchy.Node]histogram.Hist)
	for _, e := range d.leaves {
		hists[e.node] = e.hist
	}
	for _, c := range d.cells {
		for n := c.leaf.node.Parent; n != nil; n = n.Parent {
			h, ok := hists[n]
			if !ok {
				h = n.Hist.Clone()
			}
			if grow := c.size + 1 - int64(len(h)); grow > 0 {
				h = append(h, make(histogram.Hist, grow)...)
			}
			h[c.size] += c.n
			hists[n] = h
		}
	}
	for n, h := range hists {
		if !n.IsLeaf() {
			hists[n] = h.Trim()
		}
	}
	return cur.WithHists(hists), nil
}

// rebuild builds the edited tree from scratch: every untouched leaf's
// histogram and every touched leaf's edited one, one count-aware add
// per non-empty cell.
func (d *delta) rebuild() (*hierarchy.Tree, error) {
	b := hierarchy.NewBuilder(d.cur.Root.Name)
	addHist := func(names []string, h histogram.Hist) {
		for size, n := range h {
			if n != 0 {
				b.AddGroups(names, int64(size), n)
			}
		}
	}
	edited := make(map[*hierarchy.Node]bool, len(d.leaves))
	for _, e := range d.leaves {
		if e.node != nil {
			edited[e.node] = true
		}
		addHist(e.names, e.hist)
	}
	for _, n := range d.cur.Leaves() {
		if edited[n] {
			continue
		}
		names := make([]string, n.Level)
		for p := n; p.Parent != nil; p = p.Parent {
			names[p.Level-1] = p.Name
		}
		addHist(names, n.Hist)
	}
	return b.Build()
}

// step applies ev to head (nil before the first snapshot) and describes
// the version it makes, numbered seq. CreatedAt is left to the caller.
func step(head *hierarchy.Tree, seq int64, ev Event) (*hierarchy.Tree, Version, error) {
	tree, err := apply(head, ev)
	if err != nil {
		return nil, Version{}, err
	}
	return tree, Version{
		Seq:         seq,
		Fingerprint: hierarchy.FingerprintTree(tree),
		Type:        ev.Type,
		Nodes:       len(tree.Nodes()),
		Groups:      tree.Root.G(),
	}, nil
}

// touched returns the node paths an event changes: for a delta, every
// touched leaf plus all its ancestors up to and including the root —
// exactly the changed-set contract of hcoc.ReleaseSparseFrom. Paths are
// split as apply splits them, so a name containing "/" marks every
// level it spans. For a snapshot it returns nil, meaning "everything".
func (ev Event) touched(root string) map[string]bool {
	if ev.Type != KindDelta {
		return nil
	}
	out := map[string]bool{root: true}
	mark := func(path []string) {
		p := root
		for _, name := range leafNames(path) {
			p += "/" + name
			out[p] = true
		}
	}
	for _, g := range ev.Add {
		mark(g.Path)
	}
	for _, g := range ev.Remove {
		mark(g.Path)
	}
	for _, d := range ev.Drift {
		mark(d.Path)
	}
	return out
}

// Log is one hierarchy's event history. Its id is the fingerprint of
// the version-1 snapshot tree — the same content address the legacy
// upload API handed out — so snapshot re-uploads stay idempotent and
// existing hierarchy ids keep resolving. The head tree is the log's
// state: each event is applied to it. Safe for concurrent use.
type Log struct {
	id string
	st *store.Store // nil: in-memory only, nothing persists

	mu       sync.Mutex
	events   []Event
	versions []Version
	head     *hierarchy.Tree

	// fps lists the versions' fingerprints under a lock of its own:
	// the engine calls Fingerprints under its lock, so it must not wait
	// on mu, which an append holds across its persist and a refresh
	// across its store reads.
	fpMu sync.Mutex
	fps  []string
}

// ID returns the log's stable identifier.
func (l *Log) ID() string { return l.id }

// Root returns the current root name.
func (l *Log) Root() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head.Root.Name
}

// Head returns the latest version.
func (l *Log) Head() Version {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.versions[len(l.versions)-1]
}

// HeadTree returns the latest version's tree. The tree is immutable —
// callers must not mutate it.
func (l *Log) HeadTree() *hierarchy.Tree {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// Versions lists every version, oldest first.
func (l *Log) Versions() []Version {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Version, len(l.versions))
	copy(out, l.versions)
	return out
}

// Fingerprints lists every version's fingerprint, oldest first. A
// version that reverts to an earlier tree repeats its fingerprint.
func (l *Log) Fingerprints() []string {
	l.fpMu.Lock()
	defer l.fpMu.Unlock()
	return slices.Clone(l.fps)
}

// Version returns one version's metadata; seq 0 means head.
func (l *Log) Version(seq int64) (Version, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq == 0 {
		return l.versions[len(l.versions)-1], true
	}
	if seq < 1 || seq > int64(len(l.versions)) {
		return Version{}, false
	}
	return l.versions[seq-1], true
}

// Tree rebuilds the tree of a historical version by replaying the
// event prefix; seq 0 means head (returned without replay). The rebuild
// is verified against the fingerprint recorded when the version was
// created. The tree is immutable — callers must not mutate it.
func (l *Log) Tree(seq int64) (*hierarchy.Tree, Version, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq == 0 || seq == int64(len(l.versions)) {
		return l.head, l.versions[len(l.versions)-1], nil
	}
	if seq < 1 || seq > int64(len(l.versions)) {
		return nil, Version{}, fmt.Errorf("eventlog: log %s has no version %d (head is %d)",
			l.id, seq, len(l.versions))
	}
	var tree *hierarchy.Tree
	for i := int64(0); i < seq; i++ {
		next, err := apply(tree, l.events[i])
		if err != nil {
			return nil, Version{}, fmt.Errorf("eventlog: replaying %s event %d: %w", l.id, i+1, err)
		}
		tree = next
	}
	v := l.versions[seq-1]
	if fp := hierarchy.FingerprintTree(tree); fp != v.Fingerprint {
		return nil, Version{}, fmt.Errorf("eventlog: log %s version %d rebuilt to fingerprint %s, recorded %s",
			l.id, seq, fp, v.Fingerprint)
	}
	return tree, v, nil
}

// ChangedSince returns the set of node paths that differ between two
// versions (from < to; the changed-set contract of
// hcoc.ReleaseSparseFrom), or ok=false when the span crosses a
// snapshot or a root rename — cases where "everything changed" and
// incremental reuse is pointless.
func (l *Log) ChangedSince(from, to int64) (map[string]bool, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < 1 || to > int64(len(l.versions)) || from >= to {
		return nil, false
	}
	root := l.head.Root.Name
	out := map[string]bool{}
	for i := from; i < to; i++ {
		t := l.events[i].touched(root)
		if t == nil {
			return nil, false
		}
		for p := range t {
			out[p] = true
		}
	}
	return out, true
}

// Append applies one event, persists it (chunk object first, manifest
// entry second — a crash in between leaves a durable chunk that replay
// still finds), and commits the new version. ifMatch, when non-empty,
// must equal the head fingerprint or the append fails with
// *ConflictError and no state changes.
func (l *Log) Append(ev Event, ifMatch string) (Version, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := l.versions[len(l.versions)-1]
	if ifMatch != "" && ifMatch != head.Fingerprint {
		return Version{}, &ConflictError{Log: l.id, Head: head, Given: ifMatch}
	}
	tree, v, err := step(l.head, head.Seq+1, ev)
	if err != nil {
		return Version{}, err
	}
	v.CreatedAt = time.Now().UTC()
	if l.st != nil {
		if err := l.persist(v, ev); err != nil {
			return Version{}, err
		}
	}
	l.commit(ev, tree, v)
	return v, nil
}

// commit makes tree, built by ev, the head version v. Caller holds mu
// (or owns the log before publishing it).
func (l *Log) commit(ev Event, tree *hierarchy.Tree, v Version) {
	l.events = append(l.events, ev)
	l.versions = append(l.versions, v)
	l.head = tree
	l.fpMu.Lock()
	l.fps = append(l.fps, v.Fingerprint)
	l.fpMu.Unlock()
}

// persist writes the chunk object (atomic) and then its manifest entry.
func (l *Log) persist(v Version, ev Event) error {
	data, err := json.Marshal(chunk{Seq: v.Seq, Fingerprint: v.Fingerprint, CreatedAt: v.CreatedAt, Event: ev})
	if err != nil {
		return fmt.Errorf("eventlog: encoding event %d: %w", v.Seq, err)
	}
	if err := l.st.Blob().Put(chunkKey(l.id, v.Seq), append(data, '\n')); err != nil {
		return fmt.Errorf("eventlog: writing event chunk %d: %w", v.Seq, err)
	}
	if err := l.st.AppendEvent(store.Meta{Hierarchy: l.id, Seq: v.Seq}); err != nil {
		return fmt.Errorf("eventlog: indexing event chunk %d: %w", v.Seq, err)
	}
	return nil
}

// catchUp replays chunks past the current head — written by another
// process on a shared backend — into the in-memory log. Caller holds mu.
func (l *Log) catchUp() error {
	if l.st == nil {
		return nil
	}
	for {
		seq := int64(len(l.versions)) + 1
		c, ok, err := readChunk(l.st.Blob(), l.id, seq)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		tree, v, err := step(l.head, seq, c.Event)
		if err != nil {
			return fmt.Errorf("eventlog: replaying %s event %d: %w", l.id, seq, err)
		}
		if v.Fingerprint != c.Fingerprint {
			return fmt.Errorf("eventlog: log %s event %d replayed to fingerprint %s, chunk says %s",
				l.id, seq, v.Fingerprint, c.Fingerprint)
		}
		v.CreatedAt = c.CreatedAt
		l.commit(c.Event, tree, v)
	}
}

// Refresh picks up chunks appended by other writers on a shared
// backend.
func (l *Log) Refresh() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.catchUp()
}

// readChunk loads one chunk. ok=false means the chunk is absent or
// torn — the replay stop condition — unless a later chunk exists, which
// is real mid-log corruption and an error.
func readChunk(b store.BlobStore, id string, seq int64) (chunk, bool, error) {
	f, _, err := b.Get(chunkKey(id, seq))
	if errors.Is(err, store.ErrNoBlob) {
		return chunk{}, false, checkNoSuccessor(b, id, seq)
	}
	if err != nil {
		return chunk{}, false, fmt.Errorf("eventlog: reading chunk %d of %s: %w", seq, id, err)
	}
	defer f.Close()
	var c chunk
	if err := json.NewDecoder(f).Decode(&c); err != nil || c.Seq != seq || c.Fingerprint == "" {
		// A torn tail chunk decodes as garbage; tolerate it only if the
		// log truly ends here.
		return chunk{}, false, checkNoSuccessor(b, id, seq)
	}
	return chunk{Seq: c.Seq, Fingerprint: c.Fingerprint, CreatedAt: c.CreatedAt, Event: c.Event}, true, nil
}

// checkNoSuccessor errors if a chunk exists after a missing/torn one.
func checkNoSuccessor(b store.BlobStore, id string, seq int64) error {
	if _, err := b.Stat(chunkKey(id, seq+1)); err == nil {
		return fmt.Errorf("eventlog: log %s chunk %d is missing or torn but chunk %d exists", id, seq, seq+1)
	}
	return nil
}

// newLog establishes a log whose version 1 is the snapshot ev, already
// applied into tree and described by v, persisting chunk 1 when a store
// is attached.
func newLog(st *store.Store, ev Event, tree *hierarchy.Tree, v Version) (*Log, error) {
	v.CreatedAt = time.Now().UTC()
	l := &Log{id: v.Fingerprint, st: st}
	if st != nil {
		if err := l.persist(v, ev); err != nil {
			return nil, err
		}
	}
	l.commit(ev, tree, v)
	return l, nil
}

// openLog replays a persisted log from chunk 1.
func openLog(st *store.Store, id string) (*Log, error) {
	l := &Log{id: id, st: st}
	c, ok, err := readChunk(st.Blob(), id, 1)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("eventlog: log %s has no first chunk", id)
	}
	if c.Event.Type != KindSnapshot {
		return nil, fmt.Errorf("eventlog: log %s starts with a %q event, want snapshot", id, c.Event.Type)
	}
	tree, v, err := step(nil, 1, c.Event)
	if err != nil {
		return nil, fmt.Errorf("eventlog: replaying %s event 1: %w", id, err)
	}
	if v.Fingerprint != c.Fingerprint || v.Fingerprint != id {
		return nil, fmt.Errorf("eventlog: log %s first chunk rebuilt to fingerprint %s (chunk says %s)",
			id, v.Fingerprint, c.Fingerprint)
	}
	v.CreatedAt = c.CreatedAt
	l.commit(c.Event, tree, v)
	if err := l.catchUp(); err != nil {
		return nil, err
	}
	return l, nil
}
