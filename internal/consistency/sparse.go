package consistency

import (
	"fmt"
	"sort"

	"hcoc/internal/estimator"
	"hcoc/internal/hierarchy"
	"hcoc/internal/histogram"
	"hcoc/internal/matching"
)

// SparseRelease maps node paths to released count-of-counts histograms
// in run-length form. It is the memory-frugal shape of a Release: a
// node costs space proportional to its distinct group sizes, not to the
// public bound K, which is what lets the engine cache hold orders of
// magnitude more releases.
type SparseRelease map[string]histogram.Sparse

// Dense expands the release into the dense representation.
func (r SparseRelease) Dense() Release {
	out := make(Release, len(r))
	for path, s := range r {
		out[path] = s.Hist()
	}
	return out
}

// TotalRuns returns the number of runs held across all nodes — the
// quantity cache cost accounting is based on.
func (r SparseRelease) TotalRuns() int64 {
	var n int64
	for _, s := range r {
		n += int64(len(s))
	}
	return n
}

// CostBytes estimates the resident memory of the release: 16 bytes per
// run plus per-node map and key overhead. It is the unit the engine's
// byte-budgeted cache accounts in.
func (r SparseRelease) CostBytes() int64 {
	// Map bucket, string header, slice header and allocator slack,
	// approximated per entry.
	const perNode = 112
	var b int64
	for path, s := range r {
		b += perNode + int64(len(path)) + int64(len(s))*16
	}
	return b
}

// Check verifies the four problem requirements of Section 3 against the
// public structure of the tree, exactly as Release.Check does, but as
// run scans.
func (r SparseRelease) Check(tree *hierarchy.Tree) error {
	var err error
	tree.Walk(func(n *hierarchy.Node) {
		if err != nil {
			return
		}
		s, ok := r[n.Path]
		if !ok {
			err = fmt.Errorf("consistency: no release for node %q", n.Path)
			return
		}
		if e := s.Validate(); e != nil {
			err = fmt.Errorf("consistency: node %q: %w", n.Path, e)
			return
		}
		if s.Groups() != n.G() {
			err = fmt.Errorf("consistency: node %q released %d groups, public count is %d", n.Path, s.Groups(), n.G())
			return
		}
		if !n.IsLeaf() {
			sum := histogram.Sparse{}
			for _, c := range n.Children {
				sum = sum.Add(r[c.Path])
			}
			if !s.Equal(sum) {
				err = fmt.Errorf("consistency: node %q is not the sum of its children", n.Path)
			}
		}
	})
	return err
}

// updRun is one run of a node's updated (merged, rounded) estimate:
// count consecutive groups, in the rank order of the original estimate,
// sharing the updated value val and variance vr. Unlike the original
// estimate, updated values need not be sorted — runs are index-aligned,
// not size-sorted.
type updRun struct {
	val   int64
	vr    float64
	count int64
}

// runState is nodeState in run-length form: the per-node intermediate
// results of Algorithm 1 at O(distinct sizes) instead of O(groups).
type runState struct {
	hg  []estimator.SizeRun // original estimate runs (used for matching)
	upd []updRun            // updated runs, rank-aligned with hg
}

// hgRuns projects the original estimate onto the (size, count) runs the
// matcher consumes.
func hgRuns(rs []estimator.SizeRun) []histogram.Run {
	out := make([]histogram.Run, len(rs))
	for i, r := range rs {
		out[i] = histogram.Run{Size: r.Size, Count: r.Count}
	}
	return out
}

// appendUpd appends a run, merging it into the previous one when value
// and variance agree exactly (pure compaction; lookups by rank see the
// same values either way).
func appendUpd(runs []updRun, r updRun) []updRun {
	if n := len(runs); n > 0 && runs[n-1].val == r.val && runs[n-1].vr == r.vr {
		runs[n-1].count += r.count
		return runs
	}
	return append(runs, r)
}

// updSparse converts an updated-run list into the canonical sparse
// histogram (sorted by size, equal sizes merged) — the run-length
// equivalent of GroupSizes.Hist().
func updSparse(runs []updRun) histogram.Sparse {
	pairs := make(histogram.Sparse, 0, len(runs))
	for _, r := range runs {
		pairs = append(pairs, histogram.Run{Size: r.val, Count: r.count})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Size < pairs[j].Size })
	out := pairs[:0]
	for _, p := range pairs {
		if n := len(out); n > 0 && out[n-1].Size == p.Size {
			out[n-1].Count += p.Count
		} else {
			out = append(out, p)
		}
	}
	return out
}

// TopDownSparse runs Algorithm 1 entirely in run-length form: per-level
// DP estimation (EstimateRuns), top-down matching and merging over runs
// (ComputeRuns), then sparse back-substitution. It releases bit-for-bit
// the same histograms as TopDownDense — the noise draws and every merge
// are identical; only the data layout differs — in time and space
// O(runs) per node for every step after the (necessarily dense) noise
// injection. It is TopDownSparseFrom with no prior state, the captured
// state dropped.
func TopDownSparse(tree *hierarchy.Tree, opts Options) (SparseRelease, error) {
	out, _, _, err := TopDownSparseFrom(tree, opts, nil, nil)
	return out, err
}

// matchParentRuns is matchParent over runs: Algorithm 2 as a run sweep,
// then per-segment merging. Each matched segment is intersected with
// the child's estimate runs (constant size and variance) and the
// parent's updated runs (constant value and variance), so one merge
// covers every group in the overlap — the per-parent cost is
// O(segments + runs), not O(groups).
func matchParentRuns(states map[string]*runState, parent *hierarchy.Node, strategy MergeStrategy) error {
	ps := states[parent.Path]
	childHg := make([][]histogram.Run, len(parent.Children))
	for i, c := range parent.Children {
		childHg[i] = hgRuns(states[c.Path].hg)
	}
	segs, err := matching.ComputeRuns(hgRuns(ps.hg), childHg)
	if err != nil {
		return fmt.Errorf("consistency: node %q: %w", parent.Path, err)
	}

	// Rank offsets of the parent's updated runs, for locating a
	// segment's parent range.
	pOffs := make([]int64, len(ps.upd)+1)
	for i, u := range ps.upd {
		pOffs[i+1] = pOffs[i] + u.count
	}

	for i, c := range parent.Children {
		cs := states[c.Path]
		upd := []updRun{}
		cr, co := 0, int64(0) // child run cursor: run index, consumed within run
		pr := 0               // parent upd run; segments' parent ranks only grow
		for _, seg := range segs[i] {
			pIdx := seg.Parent
			for n := seg.N; n > 0; {
				for pOffs[pr+1] <= pIdx {
					pr++
				}
				m := n
				if left := pOffs[pr+1] - pIdx; left < m {
					m = left
				}
				if left := cs.hg[cr].Count - co; left < m {
					m = left
				}
				val, vr := merge(strategy,
					float64(cs.hg[cr].Size), cs.hg[cr].Var,
					float64(ps.upd[pr].val), ps.upd[pr].vr)
				if val < 0 {
					val = 0 // rounding guard; estimates are nonnegative
				}
				upd = appendUpd(upd, updRun{val: int64(val + 0.5), vr: vr, count: m})
				pIdx += m
				n -= m
				co += m
				for cr < len(cs.hg) && co >= cs.hg[cr].Count {
					co -= cs.hg[cr].Count
					cr++
				}
			}
		}
		cs.upd = upd
	}
	return nil
}

// BottomUpSparse is BottomUp in run-length form: the same leaf
// estimates (identical noise draws via EstimateRuns), made in the
// pipeline's one estimation fan-out across opts.Workers goroutines and
// aggregated upward as sparse sums.
func BottomUpSparse(tree *hierarchy.Tree, opts Options) (SparseRelease, error) {
	if err := opts.validate(tree.Depth()); err != nil {
		return nil, err
	}
	leaves := tree.Leaves()
	runs, err := estimateRuns(leaves, opts, opts.Epsilon)
	if err != nil {
		return nil, err
	}
	out := make(SparseRelease)
	for i, leaf := range leaves {
		out[leaf.Path] = estimator.RunsSparse(runs[i])
	}
	sumUp(tree, out)
	return out, nil
}

// sumUp is back-substitution (lines 14-15 of Algorithm 1): given every
// leaf's release in out, it sets each internal node, deepest level
// first, to the sum of its children.
func sumUp(tree *hierarchy.Tree, out SparseRelease) {
	for level := tree.Depth() - 2; level >= 0; level-- {
		for _, n := range tree.ByLevel[level] {
			sum := histogram.Sparse{}
			for _, c := range n.Children {
				sum = sum.Add(out[c.Path])
			}
			out[n.Path] = sum
		}
	}
}
