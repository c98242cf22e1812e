package consistency

import (
	"fmt"
	"hash/fnv"

	"hcoc/internal/estimator"
	"hcoc/internal/hierarchy"
	"hcoc/internal/noise"
)

// nodeSeed derives a per-node noise seed from the release seed and the
// node's path, so that per-node estimation is order-independent (and
// therefore parallelizable) while remaining fully reproducible.
func nodeSeed(seed int64, path string) int64 {
	h := fnv.New64a()
	// FNV over the path, mixed with the release seed.
	_, _ = h.Write([]byte(path))
	return seed ^ int64(h.Sum64())
}

// estimateRuns is the sparse pipeline's estimation pass (lines 1-7 of
// Algorithm 1): one fan-out across opts.Workers goroutines over nodes,
// each estimated as runs with its level's method under budget eps. Each
// node's noise stream is derived from (Seed, path), so the result is
// independent of scheduling. The runs come back in node order.
func estimateRuns(nodes []*hierarchy.Node, opts Options, eps float64) ([][]estimator.SizeRun, error) {
	out := make([][]estimator.SizeRun, len(nodes))
	err := forEachNode(nodes, opts.workerCount(len(nodes)), func(i int, n *hierarchy.Node) error {
		runs, err := estimator.EstimateRuns(opts.methodFor(n.Level), n.Hist,
			estimator.Params{Epsilon: eps, K: opts.K},
			noise.New(nodeSeed(opts.Seed, n.Path)))
		if err != nil {
			return fmt.Errorf("consistency: node %q: %w", n.Path, err)
		}
		out[i] = runs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// estimateAll produces the dense per-group nodeState for every node —
// the reference pipeline's estimation pass, with the same noise draws
// as estimateRuns.
func estimateAll(tree *hierarchy.Tree, opts Options, epsLevel float64) (map[string]*nodeState, error) {
	nodes := tree.Nodes()
	states := make([]*nodeState, len(nodes))
	err := forEachNode(nodes, opts.workerCount(len(nodes)), func(i int, n *hierarchy.Node) error {
		res, err := estimator.Estimate(opts.methodFor(n.Level), n.Hist,
			estimator.Params{Epsilon: epsLevel, K: opts.K},
			noise.New(nodeSeed(opts.Seed, n.Path)))
		if err != nil {
			return fmt.Errorf("consistency: node %q: %w", n.Path, err)
		}
		states[i] = &nodeState{hg: res.Hist.GroupSizes(), vg: res.GroupVar}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*nodeState, len(nodes))
	for i, n := range nodes {
		out[n.Path] = states[i]
	}
	return out, nil
}
