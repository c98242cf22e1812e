package eventlog_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hcoc"
	"hcoc/internal/eventlog"
	"hcoc/internal/hierarchy"
)

// sameTree compares two trees node by node: level lists, and per node
// its path, name, level, parent, children in order, and histogram cell
// for cell (length included, so trailing zeros count).
func sameTree(got, want *hcoc.Tree) error {
	if got.Root != got.ByLevel[0][0] || got.Root.Parent != nil {
		return errors.New("root is not the only level-0 node")
	}
	if len(got.ByLevel) != len(want.ByLevel) {
		return fmt.Errorf("%d levels, want %d", len(got.ByLevel), len(want.ByLevel))
	}
	for l := range want.ByLevel {
		if len(got.ByLevel[l]) != len(want.ByLevel[l]) {
			return fmt.Errorf("level %d has %d nodes, want %d", l, len(got.ByLevel[l]), len(want.ByLevel[l]))
		}
		for i, w := range want.ByLevel[l] {
			g := got.ByLevel[l][i]
			if g.Path != w.Path || g.Name != w.Name || g.Level != w.Level {
				return fmt.Errorf("level %d node %d is %q (%q, level %d), want %q (%q, level %d)",
					l, i, g.Path, g.Name, g.Level, w.Path, w.Name, w.Level)
			}
			if (g.Parent == nil) != (w.Parent == nil) || g.Parent != nil && g.Parent.Path != w.Parent.Path {
				return fmt.Errorf("node %q has the wrong parent", g.Path)
			}
			if len(g.Children) != len(w.Children) {
				return fmt.Errorf("node %q has %d children, want %d", g.Path, len(g.Children), len(w.Children))
			}
			for j, c := range w.Children {
				if g.Children[j].Path != c.Path || g.Children[j].Parent != g {
					return fmt.Errorf("node %q child %d is %q, want %q", g.Path, j, g.Children[j].Path, c.Path)
				}
			}
			if len(g.Hist) != len(w.Hist) {
				return fmt.Errorf("node %q histogram has %d cells, want %d", g.Path, len(g.Hist), len(w.Hist))
			}
			for s := range w.Hist {
				if g.Hist[s] != w.Hist[s] {
					return fmt.Errorf("node %q has %d groups of size %d, want %d", g.Path, g.Hist[s], s, w.Hist[s])
				}
			}
		}
	}
	if hierarchy.FingerprintTree(got) != hierarchy.FingerprintTree(want) {
		return errors.New("equal trees fingerprint differently")
	}
	return nil
}

// try is the shadow's checked apply: the event applied to a copy of the
// group multiset with the log's rules (removes, then drifts, then adds;
// paths joined with "/" and split again), then BuildTree. It returns
// the next shadow, or an error where the log must refuse the event.
func (s *shadow) try(ev eventlog.Event) (*shadow, error) {
	next := &shadow{root: s.root, counts: map[string]map[int64]int64{}}
	for k, sizes := range s.counts {
		next.counts[k] = map[int64]int64{}
		for sz, n := range sizes {
			next.counts[k][sz] = n
		}
	}
	add := func(path []string, size, n int64) error {
		if len(path) == 0 || size < 0 {
			return errors.New("bad group")
		}
		next.add(path, size, n)
		return nil
	}
	remove := func(path []string, size, n int64) error {
		if next.counts[strings.Join(path, "/")][size] < n {
			return errors.New("no such group")
		}
		next.add(path, size, -n)
		return nil
	}
	if len(ev.Add)+len(ev.Remove)+len(ev.Drift) == 0 {
		return nil, errors.New("empty delta")
	}
	for _, g := range ev.Remove {
		if err := remove(g.Path, g.Size, 1); err != nil {
			return nil, err
		}
	}
	for _, d := range ev.Drift {
		if d.Count <= 0 || d.From == d.To {
			return nil, errors.New("bad drift")
		}
		if err := remove(d.Path, d.From, d.Count); err != nil {
			return nil, err
		}
		if err := add(d.Path, d.To, d.Count); err != nil {
			return nil, err
		}
	}
	for _, g := range ev.Add {
		if err := add(g.Path, g.Size, 1); err != nil {
			return nil, err
		}
	}
	if len(next.counts) == 0 {
		return nil, errors.New("empty hierarchy")
	}
	if _, err := hcoc.BuildHierarchy(next.root, next.groups()); err != nil {
		return nil, err
	}
	return next, nil
}

// fuzzPaths is the path universe fuzzed deltas draw from: the seed
// tree's leaves, new leaves, a path the "/" split turns into an existing
// or a new leaf, and paths that are refused or break the tree's depth.
var fuzzPaths = [][]string{
	{"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "z"}, {"c", "w"},
	{"a/x"}, {"d/v"}, {"a", "q"},
	{"a"}, {"a", "x", "q"}, {}, {""},
}

// decodeDeltas turns fuzz bytes into at most 32 delta events. Each
// event starts with a byte whose low two bits plus one give its
// operation count; each operation takes three bytes: kind and path,
// size, and the drift target and count.
func decodeDeltas(data []byte) []eventlog.Event {
	var out []eventlog.Event
	for len(data) > 0 && len(out) < 32 {
		ops := int(data[0]&3) + 1
		data = data[1:]
		ev := eventlog.Event{Type: eventlog.KindDelta}
		for ; ops > 0 && len(data) >= 3; ops-- {
			kind, path := data[0]%3, fuzzPaths[int(data[0]/3)%len(fuzzPaths)]
			size := int64(int8(data[1])) % 24
			switch kind {
			case 0:
				ev.Remove = append(ev.Remove, eventlog.Group{Path: path, Size: size})
			case 1:
				ev.Drift = append(ev.Drift, eventlog.Drift{
					Path: path, From: size, To: int64(data[2]>>2) % 40, Count: int64(data[2]&3) - 1,
				})
			default:
				ev.Add = append(ev.Add, eventlog.Group{Path: path, Size: size})
			}
			data = data[3:]
		}
		out = append(out, ev)
	}
	return out
}

// FuzzApplyEvents appends fuzz-decoded deltas to a log over a small
// seed snapshot. The log must accept exactly the events an independent
// shadow group list accepts; a refused event leaves the head version,
// fingerprint and tree untouched, and an accepted one leaves a head
// tree equal, node by node, to BuildTree of the shadow. Earlier
// versions' trees, whose histograms the head may share, never change.
func FuzzApplyEvents(f *testing.F) {
	// An operation's first byte is 3*path index + kind (0 remove,
	// 1 drift, 2 add).
	f.Add([]byte{0, 2, 5, 0})                    // add at an existing leaf
	f.Add([]byte{0, 23, 3, 0})                   // add at a new leaf
	f.Add([]byte{1, 9, 1, 0, 2, 30, 0})          // empty a leaf, add elsewhere
	f.Add([]byte{0, 1, 3, 70})                   // drift a group up
	f.Add([]byte{0, 8, 2, 0, 0, 6, 9, 0})        // remove the largest group: histograms shorten
	f.Add([]byte{0, 17, 9, 0, 0, 20, 4, 0})      // add through "a/x", then through "d/v"
	f.Add([]byte{2, 0, 3, 0, 1, 5, 34, 2, 0, 0}) // remove, drift and a size-0 add in one event
	f.Add([]byte{0, 26, 1, 0, 0, 29, 1, 0})      // internal-node and too-deep adds
	f.Fuzz(func(t *testing.T, data []byte) {
		snapshot := []hcoc.Group{
			{Path: []string{"a", "x"}, Size: 3},
			{Path: []string{"a", "x"}, Size: 5},
			{Path: []string{"a", "y"}, Size: 0},
			{Path: []string{"b", "x"}, Size: 9},
			{Path: []string{"b", "z"}, Size: 1},
		}
		mgr, err := eventlog.OpenManager(nil)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := mgr.Create("root", snapshot)
		if err != nil {
			t.Fatal(err)
		}
		sh := &shadow{}
		sh.apply(eventlog.Event{Type: eventlog.KindSnapshot, Root: "root", Groups: toEventGroups(snapshot)})
		var trees []*hcoc.Tree
		var versions []eventlog.Version
		for i, ev := range decodeDeltas(data) {
			before, beforeTree := l.Head(), l.HeadTree()
			trees, versions = append(trees, beforeTree), append(versions, before)
			next, want := sh.try(ev)
			v, err := l.Append(ev, "")
			if (err == nil) != (want == nil) {
				t.Fatalf("event %d %+v: log error %v, shadow error %v", i, ev, err, want)
			}
			if err != nil {
				if l.Head() != before || l.HeadTree() != beforeTree {
					t.Fatalf("event %d: refused append moved the head", i)
				}
				continue
			}
			sh = next
			fresh, err := hcoc.BuildHierarchy(sh.root, sh.groups())
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(l.HeadTree(), fresh); err != nil {
				t.Fatalf("event %d %+v: %v", i, ev, err)
			}
			if v.Fingerprint != hierarchy.FingerprintTree(fresh) || v.Groups != fresh.Root.G() || v.Nodes != len(fresh.Nodes()) {
				t.Fatalf("event %d: version %+v does not describe the fresh tree", i, v)
			}
		}
		for i, tree := range trees {
			if hierarchy.FingerprintTree(tree) != versions[i].Fingerprint {
				t.Fatalf("version %d's tree changed after later appends", versions[i].Seq)
			}
		}
	})
}

func toEventGroups(groups []hcoc.Group) []eventlog.Group {
	out := make([]eventlog.Group, len(groups))
	for i, g := range groups {
		out[i] = eventlog.Group{Path: g.Path, Size: g.Size}
	}
	return out
}
