package hcoc

import (
	"math"
	"math/rand"
	"testing"

	"hcoc/internal/noise"
)

func smallGroups(seed int64, n int) []Group {
	r := rand.New(rand.NewSource(seed))
	states := []string{"CA", "OR", "WA"}
	out := make([]Group, n)
	for i := range out {
		out[i] = Group{
			Path: []string{states[r.Intn(len(states))], string(rune('a' + r.Intn(3)))},
			Size: int64(r.Intn(12)),
		}
	}
	return out
}

func TestPublicEndToEnd(t *testing.T) {
	tree, err := BuildHierarchy("US", smallGroups(1, 400))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Release(tree, Options{Epsilon: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(tree, rel); err != nil {
		t.Fatal(err)
	}
	if len(rel) != len(tree.Nodes()) {
		t.Errorf("released %d nodes, want %d", len(rel), len(tree.Nodes()))
	}
}

func TestPublicBottomUp(t *testing.T) {
	tree, err := BuildHierarchy("US", smallGroups(2, 300))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := ReleaseBottomUp(tree, Options{Epsilon: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(tree, rel); err != nil {
		t.Fatal(err)
	}
}

func TestPublicReleaseSingle(t *testing.T) {
	h := Histogram{0, 40, 25, 10, 0, 3}
	for _, m := range []Method{MethodHc, MethodHg, MethodNaive, MethodHcL2} {
		est, err := ReleaseSingle(h, m, Options{Epsilon: 1, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if est.Groups() != h.Groups() {
			t.Errorf("%v: groups %d, want %d", m, est.Groups(), h.Groups())
		}
		if est.Validate() != nil {
			t.Errorf("%v: invalid estimate", m)
		}
	}
	if _, err := ReleaseSingle(h, MethodHc, Options{}); err == nil {
		t.Error("zero epsilon accepted")
	}
}

func TestPublicOptionsDefaults(t *testing.T) {
	// Methods, Merge, and K all default sensibly.
	tree, err := BuildHierarchy("US", smallGroups(3, 200))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Release(tree, Options{Epsilon: 2, Seed: 1, Methods: []Method{MethodHg}, Merge: MergeAverage})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(tree, rel); err != nil {
		t.Fatal(err)
	}
}

func TestPublicEMD(t *testing.T) {
	a := Histogram{0, 100}
	b := Histogram{0, 0, 100}
	if got := EMD(a, b); got != 100 {
		t.Errorf("EMD = %d, want 100", got)
	}
}

func TestPublicSyntheticWorkloads(t *testing.T) {
	for _, kind := range []DatasetKind{DatasetHousing, DatasetTaxi, DatasetRaceWhite, DatasetRaceHawaiian} {
		tree, err := SyntheticTree(kind, DatasetConfig{Seed: 4, Scale: 0.02})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if tree.Root.G() == 0 {
			t.Fatalf("%v: empty workload", kind)
		}
		groups, err := SyntheticGroups(kind, DatasetConfig{Seed: 4, Scale: 0.02})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(groups) == 0 {
			t.Fatalf("%v: no groups", kind)
		}
	}
}

func TestReleaseDeterminism(t *testing.T) {
	tree, err := BuildHierarchy("US", smallGroups(5, 300))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Release(tree, Options{Epsilon: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Release(tree, Options{Epsilon: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for path, h := range a {
		if !h.Equal(b[path]) {
			t.Fatalf("node %q differs under identical seeds", path)
		}
	}
	c, err := Release(tree, Options{Epsilon: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for path, h := range a {
		if !h.Equal(c[path]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical releases (suspicious)")
	}
}

// TestEpsilonFloor: every entry point refuses, with an error and not a
// panic, an epsilon the noise cannot honour: NaN, ±Inf, and a budget
// leaving one node's estimate under 2^-40. Below about 1e-16 the two
// geometric draws of every cell cancel, and a release would publish
// exact histograms.
func TestEpsilonFloor(t *testing.T) {
	tree, err := BuildHierarchy("US", smallGroups(7, 200))
	if err != nil {
		t.Fatal(err)
	}
	h := tree.Root.Hist
	opts := func(eps float64) Options { return Options{Epsilon: eps, K: 50, Seed: 1} }
	topDown := map[string]func(float64) error{
		"Release":       func(e float64) error { _, err := Release(tree, opts(e)); return err },
		"ReleaseSparse": func(e float64) error { _, err := ReleaseSparse(tree, opts(e)); return err },
		"ReleaseSparseFrom": func(e float64) error {
			_, _, _, err := ReleaseSparseFrom(tree, opts(e), nil, nil)
			return err
		},
		"PrivateGroupCounts": func(e float64) error { _, err := PrivateGroupCounts(tree, e, 1); return err },
	}
	single := map[string]func(float64) error{
		"ReleaseBottomUp":       func(e float64) error { _, err := ReleaseBottomUp(tree, opts(e)); return err },
		"ReleaseBottomUpSparse": func(e float64) error { _, err := ReleaseBottomUpSparse(tree, opts(e)); return err },
		"ReleaseSingle":         func(e float64) error { _, err := ReleaseSingle(h, MethodHc, opts(e)); return err },
		"EstimateK":             func(e float64) error { _, err := EstimateK(h, e, 1); return err },
		"ChooseMethod":          func(e float64) error { _, err := ChooseMethod(h, e, 1); return err },
	}
	for _, eps := range []float64{1e-17, 1e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, entries := range []map[string]func(float64) error{topDown, single} {
			for name, f := range entries {
				if err := f(eps); err == nil {
					t.Errorf("%s accepted epsilon %g", name, eps)
				}
			}
		}
	}

	// The floor holds per node: twice the floor over this tree's three
	// levels is refused where it is split, and spent where one estimate
	// takes it whole.
	if tree.Depth() != 3 {
		t.Fatalf("tree depth %d, want 3", tree.Depth())
	}
	for name, f := range topDown {
		if err := f(2 * noise.MinEpsilon); err == nil {
			t.Errorf("%s accepted epsilon 2^-39 split over 3 levels", name)
		}
	}
	for name, f := range single {
		if err := f(2 * noise.MinEpsilon); err != nil {
			t.Errorf("%s refused epsilon 2^-39: %v", name, err)
		}
	}
}
