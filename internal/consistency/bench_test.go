package consistency

import (
	"fmt"
	"runtime"
	"testing"

	"hcoc/internal/dataset"
	"hcoc/internal/hierarchy"
)

// benchTopDownTree builds a 3-level housing hierarchy over all 52
// states, so the middle level has 52 independent parents for the
// matching loop to fan out over.
func benchTopDownTree(b *testing.B) *hierarchy.Tree {
	b.Helper()
	tree, err := dataset.Tree(dataset.Housing, dataset.Config{Seed: 1, Scale: 0.05, Levels: 3})
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

func benchOpts(workers int) Options {
	return Options{Epsilon: 1, K: 5000, Seed: 1, Workers: workers}
}

// benchWorkers is the worker sweep: 1, then GOMAXPROCS when that is
// larger, so a 1-CPU run does not report workers=1 twice.
func benchWorkers() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkTopDownMatch isolates the per-parent matching/merging loop
// (lines 8-12 of Algorithm 1) at 1 worker and at GOMAXPROCS, after a
// shared estimation pass, for both the dense per-group walk and the
// run-length sweep. The parallel variants must be no slower at 1
// worker (they run inline) and faster at GOMAXPROCS.
func BenchmarkTopDownMatch(b *testing.B) {
	tree := benchTopDownTree(b)
	for _, workers := range benchWorkers() {
		b.Run(fmt.Sprintf("dense/workers=%d", workers), func(b *testing.B) {
			opts := benchOpts(workers)
			states, err := estimateAll(tree, opts, opts.Epsilon/float64(tree.Depth()))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := matchLevels(tree, states, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sparse/workers=%d", workers), func(b *testing.B) {
			opts := benchOpts(workers)
			nodes := tree.Nodes()
			hg, err := estimateRuns(nodes, opts, opts.Epsilon/float64(tree.Depth()))
			if err != nil {
				b.Fatal(err)
			}
			// No prior state: every node is dirty and every parent
			// re-matches, as in a fresh release.
			states := make(map[string]*runState, len(nodes))
			dirty := make(map[string]bool, len(nodes))
			for i, n := range nodes {
				states[n.Path] = &runState{hg: hg[i]}
				dirty[n.Path] = true
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := matchRuns(tree, states, nil, dirty, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopDownRelease measures the full Algorithm 1 release
// (estimation + matching + back-substitution) at both worker counts,
// dense reference versus run-length production pipeline.
func BenchmarkTopDownRelease(b *testing.B) {
	tree := benchTopDownTree(b)
	for _, workers := range benchWorkers() {
		b.Run(fmt.Sprintf("dense/workers=%d", workers), func(b *testing.B) {
			opts := benchOpts(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TopDownDense(tree, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sparse/workers=%d", workers), func(b *testing.B) {
			opts := benchOpts(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TopDownSparse(tree, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTopDownWorkersDeterministic verifies that the released histograms
// are identical at any parallelism, as Options.Workers documents.
func TestTopDownWorkersDeterministic(t *testing.T) {
	tree, err := dataset.Tree(dataset.Housing, dataset.Config{Seed: 3, Scale: 0.01, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	var base Release
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		rel, err := TopDown(tree, Options{Epsilon: 1, K: 2000, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := rel.Check(tree); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = rel
			continue
		}
		for path, h := range base {
			if !h.Equal(rel[path]) {
				t.Fatalf("workers=%d: node %q differs from workers=1 release", workers, path)
			}
		}
	}
}
