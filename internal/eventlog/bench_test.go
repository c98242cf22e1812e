package eventlog_test

import (
	"math/rand"
	"strings"
	"testing"

	"hcoc"
	"hcoc/internal/eventlog"
	"hcoc/internal/store"
)

// ingestHierarchy is the ingest-sized hierarchy: housing at scale 0.05,
// three levels, west coast (about 10k groups over about 100 nodes).
func ingestHierarchy(b *testing.B) (groups []hcoc.Group, leaves [][]string) {
	b.Helper()
	groups, err := hcoc.SyntheticGroups(hcoc.DatasetHousing, hcoc.DatasetConfig{
		Seed: 1, Scale: 0.05, Levels: 3, WestCoast: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := hcoc.BuildHierarchy("US", groups)
	if err != nil {
		b.Fatal(err)
	}
	for _, leaf := range tree.Leaves() {
		leaves = append(leaves, strings.Split(leaf.Path, "/")[1:])
	}
	return groups, leaves
}

// oneGroupDelta adds one group of size 1 to 7 at an existing leaf, the
// shape of the ingest workload's deltas.
func oneGroupDelta(r *rand.Rand, leaves [][]string) eventlog.Event {
	return eventlog.Event{Type: eventlog.KindDelta, Add: []eventlog.Group{
		{Path: leaves[r.Intn(len(leaves))], Size: int64(1 + r.Intn(7))},
	}}
}

// BenchmarkLogAppend appends one one-group delta per op to a log over
// the ingest-sized hierarchy: in memory (the apply, fingerprint and
// version bookkeeping alone) and over a disk store (plus the chunk
// write and its manifest entry).
func BenchmarkLogAppend(b *testing.B) {
	groups, leaves := ingestHierarchy(b)
	for _, arm := range []string{"memory", "disk"} {
		b.Run(arm, func(b *testing.B) {
			var st *store.Store
			if arm == "disk" {
				var err error
				if st, err = store.Open(b.TempDir()); err != nil {
					b.Fatal(err)
				}
				defer st.Close()
			}
			mgr, err := eventlog.OpenManager(st)
			if err != nil {
				b.Fatal(err)
			}
			l, _, err := mgr.Create("US", groups)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(oneGroupDelta(r, leaves), ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogReplay opens a disk store holding the ingest-sized
// snapshot and 48 one-group deltas, the ingest workload's pre-seeded
// history: each op replays all 49 chunks and verifies every recorded
// fingerprint.
func BenchmarkLogReplay(b *testing.B) {
	const deltas = 48
	groups, leaves := ingestHierarchy(b)
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := eventlog.OpenManager(st)
	if err != nil {
		b.Fatal(err)
	}
	l, _, err := mgr.Create("US", groups)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < deltas; i++ {
		if _, err := l.Append(oneGroupDelta(r, leaves), ""); err != nil {
			b.Fatal(err)
		}
	}
	st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		mgr, err := eventlog.OpenManager(st)
		if err != nil {
			b.Fatal(err)
		}
		if l, ok := mgr.Get(l.ID()); !ok || l.Head().Seq != deltas+1 {
			b.Fatalf("replay lost the log or its head")
		}
		st.Close()
	}
	b.ReportMetric(float64(b.N*(deltas+1))/b.Elapsed().Seconds(), "chunks/s")
}
