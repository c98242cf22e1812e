package hierarchy_test

import (
	"testing"

	"hcoc"
	"hcoc/internal/hierarchy"
)

// goldenTreeFingerprints pins the exact bytes FingerprintTree hashes.
// Hierarchy ids, release keys and every event-log chunk's recorded
// fingerprint are derived from them, so a change to the encoding would
// orphan every persisted log and artifact; a speed-up must leave each
// entry unchanged.
var goldenTreeFingerprints = map[string]string{
	"housing": "b04f129ae9d3263b33ff6275dc2d2732",
	"census":  "28dbfbd46cc6d9691410aff48ed57a54",
	"taxi":    "e483a3b70475d935602ac2d120f3bec5",
}

// goldenTrees are the generator configurations the fingerprints pin:
// small-scale housing (three levels), census and taxi trees.
func goldenTrees(t testing.TB) map[string]*hcoc.Tree {
	t.Helper()
	cfgs := map[string]struct {
		kind hcoc.DatasetKind
		cfg  hcoc.DatasetConfig
	}{
		"housing": {hcoc.DatasetHousing, hcoc.DatasetConfig{Seed: 1, Scale: 0.01, Levels: 3, WestCoast: true}},
		"census":  {hcoc.DatasetRaceHawaiian, hcoc.DatasetConfig{Seed: 2, Scale: 0.05}},
		"taxi":    {hcoc.DatasetTaxi, hcoc.DatasetConfig{Seed: 3, Scale: 0.02, Levels: 3}},
	}
	out := make(map[string]*hcoc.Tree, len(cfgs))
	for name, c := range cfgs {
		tree, err := hcoc.SyntheticTree(c.kind, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tree
	}
	return out
}

func TestFingerprintTreeGolden(t *testing.T) {
	trees := goldenTrees(t)
	if len(trees) != len(goldenTreeFingerprints) {
		t.Fatalf("built %d trees, table pins %d", len(trees), len(goldenTreeFingerprints))
	}
	for name, tree := range trees {
		if got, want := hierarchy.FingerprintTree(tree), goldenTreeFingerprints[name]; got != want {
			t.Errorf("%q: %q, // want %q", name, got, want)
		}
	}
}

// BenchmarkFingerprintTree hashes the ingest-sized hierarchy (housing,
// scale 0.05, three levels, west coast): the SHA-256 pass every
// event-log append and replayed chunk pays once.
func BenchmarkFingerprintTree(b *testing.B) {
	tree, err := hcoc.SyntheticTree(hcoc.DatasetHousing, hcoc.DatasetConfig{
		Seed: 1, Scale: 0.05, Levels: 3, WestCoast: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	cells := 0
	tree.Walk(func(n *hcoc.Node) { cells += len(n.Hist) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = hierarchy.FingerprintTree(tree)
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// fingerprintSink keeps the benchmarked call from being optimized away.
var fingerprintSink string
