package eventlog_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hcoc"
	"hcoc/internal/engine"
	"hcoc/internal/eventlog"
	"hcoc/internal/store"
)

// shadow tracks the expected group multiset independently of the log,
// so tests can rebuild the "freshly built" tree to compare against.
type shadow struct {
	root   string
	counts map[string]map[int64]int64
}

func (s *shadow) groups() []hcoc.Group {
	var keys []string
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []hcoc.Group
	for _, k := range keys {
		path := strings.Split(k, "/")
		var sizes []int64
		for sz := range s.counts[k] {
			sizes = append(sizes, sz)
		}
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		for _, sz := range sizes {
			for n := s.counts[k][sz]; n > 0; n-- {
				out = append(out, hcoc.Group{Path: path, Size: sz})
			}
		}
	}
	return out
}

func (s *shadow) apply(ev eventlog.Event) {
	if ev.Type == eventlog.KindSnapshot {
		s.root = ev.Root
		s.counts = map[string]map[int64]int64{}
		for _, g := range ev.Groups {
			s.add(g.Path, g.Size, 1)
		}
		return
	}
	for _, g := range ev.Remove {
		s.add(g.Path, g.Size, -1)
	}
	for _, d := range ev.Drift {
		s.add(d.Path, d.From, -d.Count)
		s.add(d.Path, d.To, d.Count)
	}
	for _, g := range ev.Add {
		s.add(g.Path, g.Size, 1)
	}
}

func (s *shadow) add(path []string, size, n int64) {
	k := strings.Join(path, "/")
	if s.counts[k] == nil {
		s.counts[k] = map[int64]int64{}
	}
	s.counts[k][size] += n
	if s.counts[k][size] == 0 {
		delete(s.counts[k], size)
	}
	if len(s.counts[k]) == 0 {
		delete(s.counts, k)
	}
}

// randomSnapshot builds a snapshot event over a fixed depth-2 leaf
// universe.
func randomSnapshot(r *rand.Rand) eventlog.Event {
	ev := eventlog.Event{Type: eventlog.KindSnapshot, Root: "root"}
	leaves := leafUniverse()
	for _, leaf := range leaves[:2+r.Intn(len(leaves)-1)] {
		for n := 1 + r.Intn(3); n > 0; n-- {
			ev.Groups = append(ev.Groups, eventlog.Group{Path: leaf, Size: int64(1 + r.Intn(40))})
		}
	}
	return ev
}

func leafUniverse() [][]string {
	return [][]string{
		{"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "z"}, {"c", "w"},
	}
}

// randomDelta builds a valid delta against the shadow state: it only
// removes or drifts groups that exist.
func randomDelta(r *rand.Rand, s *shadow) eventlog.Event {
	ev := eventlog.Event{Type: eventlog.KindDelta}
	leaves := leafUniverse()
	switch r.Intn(3) {
	case 0: // add groups, possibly at a brand-new leaf
		leaf := leaves[r.Intn(len(leaves))]
		for n := 1 + r.Intn(3); n > 0; n-- {
			ev.Add = append(ev.Add, eventlog.Group{Path: leaf, Size: int64(r.Intn(40))})
		}
	case 1: // remove one existing group (keep the hierarchy non-empty)
		k, sz, ok := pickGroup(r, s)
		total := int64(0)
		for _, sizes := range s.counts {
			for _, c := range sizes {
				total += c
			}
		}
		if !ok || total <= 1 {
			ev.Add = append(ev.Add, eventlog.Group{Path: leaves[0], Size: 7})
			break
		}
		ev.Remove = append(ev.Remove, eventlog.Group{Path: strings.Split(k, "/"), Size: sz})
	default: // drift one existing group to a new size
		k, sz, ok := pickGroup(r, s)
		if !ok {
			ev.Add = append(ev.Add, eventlog.Group{Path: leaves[0], Size: 7})
			break
		}
		ev.Drift = append(ev.Drift, eventlog.Drift{
			Path: strings.Split(k, "/"), From: sz, To: sz + int64(1+r.Intn(10)), Count: 1,
		})
	}
	return ev
}

func pickGroup(r *rand.Rand, s *shadow) (string, int64, bool) {
	var keys []string
	for k := range s.counts {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return "", 0, false
	}
	sort.Strings(keys)
	k := keys[r.Intn(len(keys))]
	var sizes []int64
	for sz := range s.counts[k] {
		sizes = append(sizes, sz)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	return k, sizes[r.Intn(len(sizes))], true
}

// TestDifferentialTraces is the randomized differential suite the
// redesign hangs on: over 200 random event traces, the delta-applied
// hierarchy is identical to one freshly built from the equivalent group
// list (node by node, and by content fingerprint), and an incremental
// release carried across versions — fed by ChangedSince — is
// bit-identical per node to a from-scratch release of the same version.
func TestDifferentialTraces(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trace := 0; trace < 200; trace++ {
		mgr, err := eventlog.OpenManager(nil)
		if err != nil {
			t.Fatal(err)
		}
		snap := randomSnapshot(r)
		sh := &shadow{}
		sh.apply(snap)
		groups := make([]hcoc.Group, len(snap.Groups))
		for i, g := range snap.Groups {
			groups[i] = hcoc.Group{Path: g.Path, Size: g.Size}
		}
		l, created, err := mgr.Create(snap.Root, groups)
		if err != nil {
			t.Fatalf("trace %d: create: %v", trace, err)
		}
		if !created {
			t.Fatalf("trace %d: fresh manager reported existing log", trace)
		}

		opts := hcoc.Options{Epsilon: 0.5, K: 60, Seed: int64(trace)}
		var prev *hcoc.ReleaseState
		prevSeq := int64(0)
		checkVersion := func(label string) {
			head := l.Head()
			fresh, err := hcoc.BuildHierarchy(sh.root, sh.groups())
			if err != nil {
				t.Fatalf("%s: fresh build: %v", label, err)
			}
			if fp := engine.FingerprintTree(fresh); fp != head.Fingerprint {
				t.Fatalf("%s: log fingerprint %s, freshly built %s", label, head.Fingerprint, fp)
			}
			if err := sameTree(l.HeadTree(), fresh); err != nil {
				t.Fatalf("%s: head tree differs from the freshly built one: %v", label, err)
			}
			var changed map[string]bool
			state := prev
			if prevSeq > 0 {
				var ok bool
				changed, ok = l.ChangedSince(prevSeq, head.Seq)
				if !ok {
					state = nil
				}
			}
			incr, nextState, _, err := hcoc.ReleaseSparseFrom(l.HeadTree(), opts, state, changed)
			if err != nil {
				t.Fatalf("%s: incremental release: %v", label, err)
			}
			scratch, err := hcoc.ReleaseSparse(fresh, opts)
			if err != nil {
				t.Fatalf("%s: scratch release: %v", label, err)
			}
			if len(incr) != len(scratch) {
				t.Fatalf("%s: released %d nodes, want %d", label, len(incr), len(scratch))
			}
			for path, w := range scratch {
				if g, ok := incr[path]; !ok || !w.Equal(g) {
					t.Fatalf("%s: node %q differs between incremental and scratch release", label, path)
				}
			}
			prev, prevSeq = nextState, head.Seq
		}
		checkVersion(fmt.Sprintf("trace %d snapshot", trace))

		for step := 0; step < 4; step++ {
			ev := randomDelta(r, sh)
			v, err := l.Append(ev, "")
			if err != nil {
				t.Fatalf("trace %d step %d: append: %v", trace, step, err)
			}
			if v.Seq != int64(step)+2 {
				t.Fatalf("trace %d step %d: seq = %d, want %d", trace, step, v.Seq, step+2)
			}
			sh.apply(ev)
			checkVersion(fmt.Sprintf("trace %d step %d", trace, step))
		}
	}
}

// TestAppendConflict pins the If-Match precondition: appending against
// a stale fingerprint fails with *ConflictError and changes nothing.
func TestAppendConflict(t *testing.T) {
	mgr, _ := eventlog.OpenManager(nil)
	l, _, err := mgr.Create("root", []hcoc.Group{
		{Path: []string{"a", "x"}, Size: 3},
		{Path: []string{"b", "y"}, Size: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	v1 := l.Head()
	delta := eventlog.Event{Type: eventlog.KindDelta, Add: []eventlog.Group{{Path: []string{"a", "x"}, Size: 9}}}
	v2, err := l.Append(delta, v1.Fingerprint)
	if err != nil {
		t.Fatalf("matching If-Match: %v", err)
	}
	if v2.Seq != 2 || v2.Fingerprint == v1.Fingerprint {
		t.Fatalf("append produced %+v", v2)
	}
	_, err = l.Append(delta, v1.Fingerprint)
	var ce *eventlog.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("stale If-Match: got %v, want *ConflictError", err)
	}
	if ce.Head.Seq != 2 || ce.Given != v1.Fingerprint {
		t.Fatalf("conflict detail: %+v", ce)
	}
	if l.Head().Seq != 2 {
		t.Fatalf("failed append moved head to %d", l.Head().Seq)
	}

	// Invalid deltas are rejected without a version.
	bad := eventlog.Event{Type: eventlog.KindDelta, Remove: []eventlog.Group{{Path: []string{"a", "x"}, Size: 999}}}
	if _, err := l.Append(bad, ""); err == nil {
		t.Fatal("removing a non-existent group must fail")
	}
	if l.Head().Seq != 2 {
		t.Fatalf("failed append moved head to %d", l.Head().Seq)
	}
}

// TestHistoricalVersions pins version immutability and ChangedSince.
func TestHistoricalVersions(t *testing.T) {
	mgr, _ := eventlog.OpenManager(nil)
	l, _, err := mgr.Create("root", []hcoc.Group{
		{Path: []string{"a", "x"}, Size: 3},
		{Path: []string{"b", "y"}, Size: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	v1 := l.Head()
	if _, err := l.Append(eventlog.Event{Type: eventlog.KindDelta,
		Add: []eventlog.Group{{Path: []string{"a", "x"}, Size: 9}}}, ""); err != nil {
		t.Fatal(err)
	}
	v2 := l.Head()
	if _, err := l.Append(eventlog.Event{Type: eventlog.KindDelta,
		Drift: []eventlog.Drift{{Path: []string{"b", "y"}, From: 5, To: 8, Count: 1}}}, ""); err != nil {
		t.Fatal(err)
	}

	tree1, got1, err := l.Tree(1)
	if err != nil {
		t.Fatal(err)
	}
	if got1.Fingerprint != v1.Fingerprint || engine.FingerprintTree(tree1) != v1.Fingerprint {
		t.Fatal("version 1 rebuild does not match its recorded fingerprint")
	}
	if _, _, err := l.Tree(99); err == nil {
		t.Fatal("unknown version must error")
	}

	changed, ok := l.ChangedSince(1, 2)
	if !ok {
		t.Fatal("delta-only span must produce a changed set")
	}
	for _, want := range []string{"root", "root/a", "root/a/x"} {
		if !changed[want] {
			t.Fatalf("changed set %v missing %q", changed, want)
		}
	}
	if changed["root/b"] || changed["root/b/y"] {
		t.Fatalf("changed set %v touches the untouched branch", changed)
	}

	// A snapshot wipes incremental reuse.
	if _, err := l.Append(eventlog.Event{Type: eventlog.KindSnapshot, Root: "root",
		Groups: []eventlog.Group{{Path: []string{"c", "z"}, Size: 2}}}, ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.ChangedSince(2, 4); ok {
		t.Fatal("span crossing a snapshot must report full invalidation")
	}
	if head := l.Head(); head.Seq != 4 || head.Fingerprint == v2.Fingerprint {
		t.Fatalf("snapshot head: %+v", head)
	}
	// Historical versions stay rebuildable after the snapshot.
	if _, got2, err := l.Tree(2); err != nil || got2.Fingerprint != v2.Fingerprint {
		t.Fatalf("version 2 after snapshot: %v %+v", err, got2)
	}
}

// TestPersistenceAndTornWrites drives the crash-safety contract over a
// real disk store: restart replays to the same head; a chunk made
// durable without its manifest entry (crash between the two writes) is
// still recovered; a torn tail chunk is ignored and replay yields the
// last durable version.
func TestPersistenceAndTornWrites(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := eventlog.OpenManager(st)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := mgr.Create("root", []hcoc.Group{
		{Path: []string{"a", "x"}, Size: 3},
		{Path: []string{"b", "y"}, Size: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	id := l.ID()
	for i := 0; i < 2; i++ {
		if _, err := l.Append(eventlog.Event{Type: eventlog.KindDelta,
			Add: []eventlog.Group{{Path: []string{"a", "x"}, Size: int64(10 + i)}}}, ""); err != nil {
			t.Fatal(err)
		}
	}
	want := l.Versions()
	st.Close()

	// Restart: replay must land on the same head with the same
	// fingerprints.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2, err := eventlog.OpenManager(st2)
	if err != nil {
		t.Fatal(err)
	}
	l2, ok := mgr2.Get(id)
	if !ok {
		t.Fatalf("restart lost log %s", id)
	}
	got := l2.Versions()
	if len(got) != len(want) {
		t.Fatalf("restart replayed %d versions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Fingerprint != want[i].Fingerprint {
			t.Fatalf("version %d drifted across restart: %+v vs %+v", i+1, got[i], want[i])
		}
	}

	// Crash between chunk write and manifest append: append one more
	// event, then rewrite the manifest without its KindEvent line. The
	// chunk object is durable, so replay must still find version 4.
	if _, err := l2.Append(eventlog.Event{Type: eventlog.KindDelta,
		Add: []eventlog.Group{{Path: []string{"b", "y"}, Size: 21}}}, ""); err != nil {
		t.Fatal(err)
	}
	head4 := l2.Head()
	st2.Close()
	manifest := filepath.Join(dir, "manifest.jsonl")
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.Contains(line, `"kind":"event"`) && strings.Contains(line, `"seq":4`) {
			continue
		}
		kept = append(kept, line)
	}
	if err := os.WriteFile(manifest, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr3, err := eventlog.OpenManager(st3)
	if err != nil {
		t.Fatal(err)
	}
	l3, ok := mgr3.Get(id)
	if !ok {
		t.Fatal("log lost after manifest truncation")
	}
	if h := l3.Head(); h.Seq != 4 || h.Fingerprint != head4.Fingerprint {
		t.Fatalf("unindexed durable chunk not recovered: head %+v, want %+v", h, head4)
	}
	st3.Close()

	// Torn tail: a partial chunk 5 (kill -9 mid-write would leave this
	// only on filesystems without atomic rename, but replay must shrug
	// either way). Replay stops at version 4.
	torn := filepath.Join(dir, "events", id, fmt.Sprintf("%012d.json", 5))
	if err := os.WriteFile(torn, []byte(`{"seq":5,"fingerprint":"abc","event":{"type":"del`), 0o644); err != nil {
		t.Fatal(err)
	}
	st4, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st4.Close()
	mgr4, err := eventlog.OpenManager(st4)
	if err != nil {
		t.Fatal(err)
	}
	l4, ok := mgr4.Get(id)
	if !ok {
		t.Fatal("log lost after torn tail")
	}
	if h := l4.Head(); h.Seq != 4 || h.Fingerprint != head4.Fingerprint {
		t.Fatalf("torn tail corrupted replay: head %+v, want %+v", h, head4)
	}
}

// TestLegacyMigration pins the upgrade path: a hierarchy persisted by
// the pre-event-log store surfaces as a single-snapshot log under its
// original fingerprint id, and the migration is idempotent across
// restarts.
func TestLegacyMigration(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	groups := []hcoc.Group{
		{Path: []string{"a", "x"}, Size: 3},
		{Path: []string{"b", "y"}, Size: 5},
	}
	tree, err := hcoc.BuildHierarchy("root", groups)
	if err != nil {
		t.Fatal(err)
	}
	fp := engine.FingerprintTree(tree)
	legacy := `{"root":"root","groups":[{"path":["a","x"],"size":3},{"path":["b","y"],"size":5}]}` + "\n"
	if err := st.Blob().Put("hierarchies/"+fp+".json", []byte(legacy)); err != nil {
		t.Fatal(err)
	}
	mgr, err := eventlog.OpenManager(st)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := mgr.Get(fp)
	if !ok {
		t.Fatalf("legacy hierarchy %s not migrated", fp)
	}
	if h := l.Head(); h.Seq != 1 || h.Fingerprint != fp {
		t.Fatalf("migrated head: %+v", h)
	}
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	mgr2, err := eventlog.OpenManager(st2)
	if err != nil {
		t.Fatal(err)
	}
	if mgr2.Len() != 1 {
		t.Fatalf("second open holds %d logs, want 1", mgr2.Len())
	}
	l2, _ := mgr2.Get(fp)
	if l2.Head().Fingerprint != fp {
		t.Fatalf("migration drifted: %+v", l2.Head())
	}
}

// TestConcurrentReadersDuringAppends: versions share histogram slices,
// so readers walking the head and historical trees while a writer
// appends must see each version exactly as recorded. Run under -race
// it also proves no apply writes to a slice a published tree holds.
func TestConcurrentReadersDuringAppends(t *testing.T) {
	mgr, _ := eventlog.OpenManager(nil)
	l, _, err := mgr.Create("root", []hcoc.Group{
		{Path: []string{"a", "x"}, Size: 3},
		{Path: []string{"a", "y"}, Size: 5},
		{Path: []string{"b", "x"}, Size: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	const appends, readers = 60, 3
	done := make(chan struct{})
	errs := make(chan error, readers)
	for reader := 0; reader < readers; reader++ {
		go func(reader int) {
			r := rand.New(rand.NewSource(int64(reader)))
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				head, hv, err := l.Tree(0)
				if err == nil && engine.FingerprintTree(head) != hv.Fingerprint {
					err = fmt.Errorf("head version %d read back with another fingerprint", hv.Seq)
				}
				if err == nil {
					tree, v, e := l.Tree(1 + r.Int63n(hv.Seq))
					if err = e; err == nil && engine.FingerprintTree(tree) != v.Fingerprint {
						err = fmt.Errorf("version %d read back with another fingerprint", v.Seq)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(reader)
	}
	r := rand.New(rand.NewSource(7))
	leaves := [][]string{{"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "z"}, {"c", "w"}}
	for i := 0; i < appends; i++ {
		ev := eventlog.Event{Type: eventlog.KindDelta,
			Add: []eventlog.Group{{Path: leaves[r.Intn(len(leaves))], Size: int64(r.Intn(30))}}}
		if i%5 == 4 {
			// Empty a leaf now and then, so structural rebuilds
			// interleave with copy-on-write appends.
			tree := l.HeadTree()
			leaf := tree.Leaves()[r.Intn(len(tree.Leaves()))]
			path := strings.Split(leaf.Path, "/")[1:]
			ev = eventlog.Event{Type: eventlog.KindDelta, Add: ev.Add}
			for size, n := range leaf.Hist {
				for ; n > 0; n-- {
					ev.Remove = append(ev.Remove, eventlog.Group{Path: path, Size: int64(size)})
				}
			}
		}
		if _, err := l.Append(ev, ""); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	close(done)
	for reader := 0; reader < readers; reader++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestChangedSinceSplitsSlashNames: a persisted delta may name a region
// "a/x", which applies as the two levels "a" and "x"; the changed set
// must then carry both, or an incremental release would reuse the stale
// estimate of "root/a".
func TestChangedSinceSplitsSlashNames(t *testing.T) {
	mgr, _ := eventlog.OpenManager(nil)
	l, _, err := mgr.Create("root", []hcoc.Group{
		{Path: []string{"a", "x"}, Size: 3},
		{Path: []string{"b", "y"}, Size: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(eventlog.Event{Type: eventlog.KindDelta,
		Add: []eventlog.Group{{Path: []string{"a/x"}, Size: 4}}}, ""); err != nil {
		t.Fatal(err)
	}
	changed, ok := l.ChangedSince(1, 2)
	if !ok {
		t.Fatal("delta-only span must produce a changed set")
	}
	for _, want := range []string{"root", "root/a", "root/a/x"} {
		if !changed[want] {
			t.Errorf("changed set %v misses %q", changed, want)
		}
	}
}
