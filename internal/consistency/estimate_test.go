package consistency

import (
	"math/rand"
	"testing"

	"hcoc/internal/hierarchy"
)

// TestTopDownIndependentOfWorkers checks that both release algorithms
// give the same release at every worker count: per-node estimation is
// the parallel stage, and every node's noise is seeded from its path.
func TestTopDownIndependentOfWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	tree := randomTree(r, 3)
	for _, alg := range []struct {
		name    string
		release func(*hierarchy.Tree, Options) (Release, error)
	}{
		{"TopDown", TopDown},
		{"BottomUp", BottomUp},
	} {
		t.Run(alg.name, func(t *testing.T) {
			var baseline Release
			for _, workers := range []int{1, 2, 8} {
				opts := defaultOpts(5)
				opts.Workers = workers
				rel, err := alg.release(tree, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if baseline == nil {
					baseline = rel
					continue
				}
				for path, h := range baseline {
					if !h.Equal(rel[path]) {
						t.Fatalf("workers=%d: node %q differs from single-worker result", workers, path)
					}
				}
			}
		})
	}
}

func TestNodeSeedDistinctness(t *testing.T) {
	// Different paths must yield different noise streams; same path and
	// seed must be stable.
	a := nodeSeed(1, "US/CA")
	b := nodeSeed(1, "US/WA")
	c := nodeSeed(1, "US/CA")
	if a == b {
		t.Error("different paths produced identical seeds")
	}
	if a != c {
		t.Error("same path produced different seeds")
	}
	if nodeSeed(2, "US/CA") == a {
		t.Error("different release seeds produced identical node seeds")
	}
}
