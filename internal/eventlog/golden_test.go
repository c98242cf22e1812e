package eventlog_test

import (
	"fmt"
	"testing"

	"hcoc"
	"hcoc/internal/eventlog"
	"hcoc/internal/hierarchy"
	"hcoc/internal/store"
)

// goldenScript is a fixed event history that walks every way a delta
// can change a tree: it adds at an existing leaf and at a new one,
// empties a leaf, drifts a group up, removes a node's largest group so
// its histogram shortens, adds a size-0 group, names a region with a
// "/" (split into two levels, as every event path is), and ends with a
// combined remove+drift+add delta and a snapshot.
func goldenScript() (root string, snapshot []hcoc.Group, deltas []eventlog.Event) {
	g := func(size int64, path ...string) eventlog.Group { return eventlog.Group{Path: path, Size: size} }
	snapshot = []hcoc.Group{
		{Path: []string{"CA", "Alameda"}, Size: 3},
		{Path: []string{"CA", "Alameda"}, Size: 5},
		{Path: []string{"CA", "Alameda"}, Size: 5},
		{Path: []string{"CA", "Kern"}, Size: 2},
		{Path: []string{"WA", "King"}, Size: 1},
		{Path: []string{"WA", "King"}, Size: 4},
		{Path: []string{"OR", "Lane"}, Size: 7},
	}
	delta := func(ev eventlog.Event) eventlog.Event { ev.Type = eventlog.KindDelta; return ev }
	deltas = []eventlog.Event{
		delta(eventlog.Event{Add: []eventlog.Group{g(6, "CA", "Alameda")}}),
		delta(eventlog.Event{Add: []eventlog.Group{g(2, "WA", "Pierce")}}),
		delta(eventlog.Event{Remove: []eventlog.Group{g(7, "OR", "Lane")}}),
		delta(eventlog.Event{Drift: []eventlog.Drift{{Path: []string{"WA", "King"}, From: 4, To: 12, Count: 1}}}),
		delta(eventlog.Event{Remove: []eventlog.Group{g(12, "WA", "King")}}),
		delta(eventlog.Event{Add: []eventlog.Group{g(0, "CA", "Kern")}}),
		delta(eventlog.Event{Add: []eventlog.Group{g(3, "WA/Pierce"), g(9, "OR/Lane")}}),
		delta(eventlog.Event{
			Remove: []eventlog.Group{g(3, "CA", "Alameda")},
			Drift:  []eventlog.Drift{{Path: []string{"CA", "Alameda"}, From: 5, To: 8, Count: 2}},
			Add:    []eventlog.Group{g(1, "CA", "Alameda")},
		}),
		{Type: eventlog.KindSnapshot, Root: "US", Groups: []eventlog.Group{g(4, "NV", "Clark"), g(2, "NV", "Washoe")}},
	}
	return "US", snapshot, deltas
}

// goldenVersions pins every version the script produces, as
// "seq fingerprint nodes groups". They were captured before the event
// log's apply was rewritten; the bytes hierarchy.FingerprintTree hashes, and so
// every hierarchy id and recorded chunk fingerprint, must not move.
var goldenVersions = []string{
	"1 d5c45e33911fb737d00b9f94d344b9f8 8 7",
	"2 4764d8612e8c80f5d85ad05af2c33854 8 8",
	"3 919d0afd9d4fa800b4a67397dfa3c141 9 9",
	"4 0b91228206965dace7a2d3d6f3a5d64e 7 8",
	"5 ce8f7aa6af7440304d2778aad9cfafcd 7 8",
	"6 e2501e21a73bfaf5fb26c5c0e9019b06 7 7",
	"7 c9f7fad5400c58cc5d7d85426e0ba751 7 8",
	"8 0d63c3d1902777e40b92ce3ba982fc43 9 10",
	"9 64ca871cdf4a5d0748db13afade738db 9 10",
	"10 77c20dbd13d7c98c451b13932664680a 4 2",
}

func versionLine(v eventlog.Version) string {
	return fmt.Sprintf("%d %s %d %d", v.Seq, v.Fingerprint, v.Nodes, v.Groups)
}

// TestGoldenVersionFingerprints runs the script over a disk store, then
// reopens the store so every chunk replays (including the delta whose
// region names contain "/"), and checks each version, live and
// replayed, against the pinned table. Every historical tree must also
// rebuild to its pinned fingerprint.
func TestGoldenVersionFingerprints(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := eventlog.OpenManager(st)
	if err != nil {
		t.Fatal(err)
	}
	root, snapshot, deltas := goldenScript()
	l, _, err := mgr.Create(root, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range deltas {
		if _, err := l.Append(ev, ""); err != nil {
			t.Fatalf("event %d: %v", i+2, err)
		}
	}
	check := func(label string, l *eventlog.Log) {
		t.Helper()
		vs := l.Versions()
		if len(vs) != len(goldenVersions) {
			t.Errorf("%s: %d versions, table pins %d", label, len(vs), len(goldenVersions))
		}
		for i, v := range vs {
			got := versionLine(v)
			if i >= len(goldenVersions) || got != goldenVersions[i] {
				t.Errorf("%s: %q,", label, got)
				continue
			}
			tree, _, err := l.Tree(v.Seq)
			if err != nil {
				t.Errorf("%s: version %d: %v", label, v.Seq, err)
				continue
			}
			if fp := hierarchy.FingerprintTree(tree); fp != v.Fingerprint {
				t.Errorf("%s: version %d rebuilt to %s, recorded %s", label, v.Seq, fp, v.Fingerprint)
			}
		}
	}
	check("live", l)
	id := l.ID()
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
	l2, ok := mgr2.Get(id)
	if !ok {
		t.Fatalf("reopen lost log %s", id)
	}
	check("replayed", l2)
}
