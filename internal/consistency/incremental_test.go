package consistency

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hcoc/internal/estimator"
	"hcoc/internal/hierarchy"
)

// changedSet expands touched leaf paths (name slices below the root)
// into the node-path set TopDownSparseFrom requires: each touched leaf
// plus every ancestor up to the root.
func changedSet(rootName string, touched [][]string) map[string]bool {
	out := map[string]bool{rootName: true}
	for _, path := range touched {
		p := rootName
		for _, name := range path {
			p += "/" + name
			out[p] = true
		}
	}
	return out
}

// mutateGroups applies a random single-leaf delta to a group list:
// picks one leaf path already present and adds, removes, or resizes
// groups there. Returns the new list and the touched leaf path.
func mutateGroups(r *rand.Rand, groups []hierarchy.Group) ([]hierarchy.Group, []string) {
	leaves := map[string][]string{}
	for _, g := range groups {
		leaves[strings.Join(g.Path, "/")] = g.Path
	}
	var keys []string
	for k := range leaves {
		keys = append(keys, k)
	}
	// Map iteration order is random; sort for reproducibility.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	target := leaves[keys[r.Intn(len(keys))]]
	tk := strings.Join(target, "/")

	out := make([]hierarchy.Group, 0, len(groups)+3)
	switch r.Intn(3) {
	case 0: // add groups
		out = append(out, groups...)
		for n := 1 + r.Intn(3); n > 0; n-- {
			out = append(out, hierarchy.Group{Path: target, Size: int64(r.Intn(50))})
		}
	case 1: // remove one group at the target leaf (keep at least one group overall)
		removed := false
		for _, g := range groups {
			if !removed && strings.Join(g.Path, "/") == tk && len(groups) > 1 {
				removed = true
				continue
			}
			out = append(out, g)
		}
	default: // drift: resize one group at the target leaf
		drifted := false
		for _, g := range groups {
			if !drifted && strings.Join(g.Path, "/") == tk {
				g.Size += int64(1 + r.Intn(20))
				drifted = true
			}
			out = append(out, g)
		}
	}
	return out, target
}

// TestTopDownSparseFromDifferential pins the incremental guarantee:
// over randomized trees and single-leaf deltas, a release recomputed
// from the prior version's state is bit-identical to a from-scratch
// release of the mutated tree, while estimating strictly fewer nodes
// whenever the tree has more than one leaf branch. TopDownSparse runs
// this same pipeline with no prior state, so every cold and
// incremental release is also compared with the dense reference.
func TestTopDownSparseFromDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	methods := [][]estimator.Method{
		nil,
		{estimator.MethodHc},
		{estimator.MethodHg},
		{estimator.MethodHcL2},
	}
	for trial := 0; trial < 30; trial++ {
		tree := randomDiffTree(t, r)
		opts := Options{
			Epsilon: 0.2 + r.Float64(),
			K:       100 + r.Intn(1000),
			Methods: methods[trial%len(methods)],
			Merge:   MergeStrategy(trial % 2),
			Seed:    int64(100 + trial),
		}
		label := fmt.Sprintf("trial %d (depth %d)", trial, tree.Depth())

		base, state, stats, err := TopDownSparseFrom(tree, opts, nil, nil)
		if err != nil {
			t.Fatalf("%s: base: %v", label, err)
		}
		if !stats.Full() || stats.NodesEstimated != stats.NodesTotal {
			t.Fatalf("%s: cold release should estimate every node, got %+v", label, stats)
		}
		full, err := TopDownSparse(tree, opts)
		if err != nil {
			t.Fatalf("%s: full: %v", label, err)
		}
		assertSameSparse(t, label+" cold", full, base)
		assertMatchesDense(t, label+" cold", tree, opts, base)

		// Chain several deltas, carrying state forward each time.
		groups := treeGroups(tree)
		for step := 0; step < 4; step++ {
			mutated, touched := mutateGroups(r, groups)
			next, err := hierarchy.BuildTree(tree.Root.Name, mutated)
			if err != nil {
				t.Fatalf("%s step %d: rebuild: %v", label, step, err)
			}
			changed := changedSet(tree.Root.Name, [][]string{touched})
			incr, nextState, st, err := TopDownSparseFrom(next, opts, state, changed)
			if err != nil {
				t.Fatalf("%s step %d: incremental: %v", label, step, err)
			}
			scratch, err := TopDownSparse(next, opts)
			if err != nil {
				t.Fatalf("%s step %d: scratch: %v", label, step, err)
			}
			assertSameSparse(t, fmt.Sprintf("%s step %d", label, step), scratch, incr)
			assertMatchesDense(t, fmt.Sprintf("%s step %d", label, step), next, opts, incr)

			if st.NodesTotal != len(next.Nodes()) {
				t.Fatalf("%s step %d: NodesTotal = %d, want %d", label, step, st.NodesTotal, len(next.Nodes()))
			}
			if len(next.Leaves()) > 1 && next.Depth() == tree.Depth() {
				if st.NodesEstimated >= st.NodesTotal {
					t.Fatalf("%s step %d: single-leaf delta estimated all %d nodes", label, step, st.NodesTotal)
				}
			}
			tree, groups, state = next, mutated, nextState
		}
	}
}

// TestTopDownSparseFromDepthChange pins the fallback: a delta that
// changes the tree depth re-splits the per-level budget, so reuse is
// abandoned and the release still matches from-scratch.
func TestTopDownSparseFromDepthChange(t *testing.T) {
	g2 := []hierarchy.Group{
		{Path: []string{"a", "x"}, Size: 3},
		{Path: []string{"b", "y"}, Size: 5},
	}
	g3 := []hierarchy.Group{
		{Path: []string{"a", "x", "p"}, Size: 3},
		{Path: []string{"b", "y", "q"}, Size: 5},
	}
	opts := Options{Epsilon: 1, K: 100, Seed: 9}
	t2, err := hierarchy.BuildTree("root", g2)
	if err != nil {
		t.Fatal(err)
	}
	_, state, _, err := TopDownSparseFrom(t2, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := hierarchy.BuildTree("root", g3)
	if err != nil {
		t.Fatal(err)
	}
	incr, _, stats, err := TopDownSparseFrom(t3, opts, state, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full() {
		t.Fatalf("depth change must force a full recompute, got %+v", stats)
	}
	scratch, err := TopDownSparse(t3, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSparse(t, "depth change", scratch, incr)
}

// TestRecomputeStateAccounting sanity-checks the state accessors.
func TestRecomputeStateAccounting(t *testing.T) {
	var nilState *RecomputeState
	if nilState.CostBytes() != 0 || nilState.Nodes() != 0 {
		t.Fatal("nil state must account as empty")
	}
	tree, err := hierarchy.BuildTree("root", []hierarchy.Group{{Path: []string{"a"}, Size: 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, state, _, err := TopDownSparseFrom(tree, Options{Epsilon: 1, K: 50}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if state.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", state.Nodes())
	}
	if state.CostBytes() <= 0 {
		t.Fatalf("CostBytes = %d, want > 0", state.CostBytes())
	}
}

// assertSameSparse fails unless two sparse releases are bit-identical.
func assertSameSparse(t *testing.T, label string, want, got SparseRelease) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: released %d nodes, want %d", label, len(got), len(want))
	}
	for path, w := range want {
		g, ok := got[path]
		if !ok {
			t.Fatalf("%s: missing node %q", label, path)
		}
		if !w.Equal(g) {
			t.Fatalf("%s: node %q differs\nwant = %v\ngot  = %v", label, path, w, g)
		}
	}
}

// assertMatchesDense fails unless got is bit-identical to the dense
// reference release of tree.
func assertMatchesDense(t *testing.T, label string, tree *hierarchy.Tree, opts Options, got SparseRelease) {
	t.Helper()
	dense, err := TopDownDense(tree, opts)
	if err != nil {
		t.Fatalf("%s: dense: %v", label, err)
	}
	assertSameRelease(t, label+" vs dense", dense, got)
}

// treeGroups flattens a tree back into its leaf group records.
func treeGroups(tree *hierarchy.Tree) []hierarchy.Group {
	var out []hierarchy.Group
	for _, leaf := range tree.Leaves() {
		names := strings.Split(leaf.Path, "/")[1:]
		for size, count := range leaf.Hist {
			for n := count; n > 0; n-- {
				out = append(out, hierarchy.Group{Path: names, Size: int64(size)})
			}
		}
	}
	return out
}
