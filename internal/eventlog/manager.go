package eventlog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"hcoc"
	"hcoc/internal/store"
)

// ErrFull reports that CreateWithin would establish a log beyond its
// bound.
var ErrFull = errors.New("eventlog: too many logs")

// Manager owns every event log the server knows about. With a store it
// discovers persisted logs through KindEvent manifest entries and
// migrates legacy snapshot-only hierarchy objects (hierarchies/<fp>)
// into single-snapshot logs, so pre-event-log deployments warm-start
// into the versioned world unchanged. With a nil store everything is
// in-memory. Safe for concurrent use.
type Manager struct {
	st *store.Store // nil: in-memory only

	mu   sync.Mutex
	logs map[string]*Log
}

// OpenManager loads (or, storeless, creates empty) the log set.
func OpenManager(st *store.Store) (*Manager, error) {
	m := &Manager{st: st, logs: make(map[string]*Log)}
	if st == nil {
		return m, nil
	}
	for id := range st.EventLogs() {
		l, err := openLog(st, id)
		if err != nil {
			return nil, err
		}
		m.logs[id] = l
	}
	// Legacy hierarchies persisted before the event log existed: migrate
	// each into a log whose first chunk is the snapshot. The log id is
	// the snapshot tree's fingerprint — the same id the legacy API
	// handed out — so existing references keep resolving.
	recs, err := st.Hierarchies()
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if _, ok := m.logs[rec.Fingerprint]; ok {
			continue
		}
		ev := snapshotEvent(rec.Root, rec.Groups)
		tree, v, err := step(nil, 1, ev)
		if err != nil {
			return nil, fmt.Errorf("eventlog: migrating legacy hierarchy %s: %w", rec.Fingerprint, err)
		}
		if v.Fingerprint != rec.Fingerprint {
			return nil, fmt.Errorf("eventlog: legacy hierarchy %s rebuilt to fingerprint %s", rec.Fingerprint, v.Fingerprint)
		}
		l, err := newLog(st, ev, tree, v)
		if err != nil {
			return nil, fmt.Errorf("eventlog: migrating legacy hierarchy %s: %w", rec.Fingerprint, err)
		}
		m.logs[l.ID()] = l
	}
	return m, nil
}

// snapshotEvent converts a root name and group records into a snapshot
// event.
func snapshotEvent(root string, groups []hcoc.Group) Event {
	ev := Event{Type: KindSnapshot, Root: root, Groups: make([]Group, len(groups))}
	for i, g := range groups {
		ev.Groups[i] = Group{Path: g.Path, Size: g.Size}
	}
	return ev
}

// Create establishes a log from a snapshot. Logs are content-addressed
// by their version-1 fingerprint, so re-creating from an identical
// snapshot returns the existing log (created=false) — idempotent, and
// the existing log keeps any deltas already appended.
func (m *Manager) Create(root string, groups []hcoc.Group) (l *Log, created bool, err error) {
	return m.CreateWithin(root, groups, 0)
}

// CreateWithin is Create with a bound: when max is positive and the
// manager already holds max logs, establishing a new one fails with
// ErrFull. An existing log is returned whatever the bound. The snapshot
// is built and fingerprinted once, before the manager is locked.
func (m *Manager) CreateWithin(root string, groups []hcoc.Group, max int) (l *Log, created bool, err error) {
	ev := snapshotEvent(root, groups)
	tree, v, err := step(nil, 1, ev)
	if err != nil {
		return nil, false, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if l, ok := m.logs[v.Fingerprint]; ok {
		return l, false, nil
	}
	if max > 0 && len(m.logs) >= max {
		return nil, false, ErrFull
	}
	l, err = newLog(m.st, ev, tree, v)
	if err != nil {
		return nil, false, err
	}
	m.logs[l.ID()] = l
	return l, true, nil
}

// Get returns a log by id.
func (m *Manager) Get(id string) (*Log, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.logs[id]
	return l, ok
}

// Len reports how many logs the manager holds.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.logs)
}

// Logs returns every log, sorted by id for stable listings.
func (m *Manager) Logs() []*Log {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Log, 0, len(m.logs))
	for _, l := range m.logs {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Refresh re-discovers logs and replays chunks appended by other
// writers on a shared backend: new logs are opened, known logs catch
// up to their durable head.
func (m *Manager) Refresh() error {
	if m.st == nil {
		return nil
	}
	known := make([]*Log, 0)
	m.mu.Lock()
	for _, l := range m.logs {
		known = append(known, l)
	}
	m.mu.Unlock()
	for _, l := range known {
		if err := l.Refresh(); err != nil {
			return err
		}
	}
	for id := range m.st.EventLogs() {
		m.mu.Lock()
		_, ok := m.logs[id]
		m.mu.Unlock()
		if ok {
			continue
		}
		l, err := openLog(m.st, id)
		if err != nil {
			return err
		}
		m.mu.Lock()
		if _, ok := m.logs[id]; !ok {
			m.logs[id] = l
		}
		m.mu.Unlock()
	}
	return nil
}
