package consistency

import "hcoc/internal/hierarchy"

// RecomputeState carries the per-node intermediate results of one
// top-down sparse release — the original estimate runs and the
// matched/merged updated runs — so a later release of a slightly
// different tree can reuse the untouched parts bit-for-bit. The final
// artifact alone cannot serve this role: back-substitution discards
// rank order and variances, both of which matching consumes.
//
// State is immutable once returned; incremental recomputes alias the
// prior state's run slices rather than copying them.
type RecomputeState struct {
	depth int
	nodes map[string]*runState
}

// CostBytes estimates the resident memory of the state, for byte-
// budgeted caches: 24 bytes per estimate run (size, count, variance),
// 24 per updated run, plus per-node map and key overhead.
func (s *RecomputeState) CostBytes() int64 {
	if s == nil {
		return 0
	}
	const perNode = 120
	var b int64
	for path, st := range s.nodes {
		b += perNode + int64(len(path)) + int64(len(st.hg)+len(st.upd))*24
	}
	return b
}

// Nodes reports how many nodes the state covers.
func (s *RecomputeState) Nodes() int {
	if s == nil {
		return 0
	}
	return len(s.nodes)
}

// RecomputeStats counts how much of the pipeline an incremental release
// actually re-ran. NodesEstimated < NodesTotal is the proof that a
// delta did not pay for a full rebuild: per-node DP estimation is the
// expensive stage, and it is skipped exactly for the nodes whose data
// the delta left untouched.
type RecomputeStats struct {
	// NodesEstimated counts nodes whose DP estimate was recomputed;
	// NodesTotal is every node in the tree.
	NodesEstimated, NodesTotal int
	// ParentsMatched counts parents whose top-down matching re-ran;
	// ParentsTotal is every internal node.
	ParentsMatched, ParentsTotal int
}

// Full reports whether the release degenerated to a from-scratch
// recompute (no prior state, depth change, or a delta touching
// everything).
func (st RecomputeStats) Full() bool {
	return st.NodesEstimated >= st.NodesTotal
}

// updRunsEqual reports bitwise equality of two updated-run lists.
// appendUpd compacts adjacent equal runs deterministically, so equal
// inputs always produce the same run boundaries and this comparison
// never sees false mismatches from representation drift.
func updRunsEqual(a, b []updRun) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TopDownSparseFrom is the sparse top-down pipeline — Algorithm 1 in
// run-length form, which TopDownSparse runs with no prior state — with
// reuse: it releases the tree under opts, reusing from prev the
// per-node work whose inputs the caller certifies unchanged. changed
// must contain the path of every node whose histogram or child set
// differs from the tree prev was computed for (for a delta touching a
// set of leaves, that is the leaves plus all their ancestors). Nodes
// absent from changed are trusted to be identical; nodes absent from
// prev are recomputed regardless.
//
// The pipeline makes three passes: one estimation fan-out across
// opts.Workers goroutines over every node it cannot reuse, all levels
// at once (estimateRuns); top-down matching and merging, in which each
// level's parents whose inputs changed re-match in parallel and the
// rest copy their children's updated runs forward (matchRuns); and
// back-substitution (sumUp).
//
// The result is bit-identical to a release with no prior state — the
// differential suite pins this — because every reused quantity is a
// deterministic function of inputs proven unchanged: estimation
// depends only on (seed, path, histogram, level budget, method), and a
// parent's matching only on its own estimate and updated runs and its
// children's estimate runs.
//
// A nil prev (or a depth change, which re-splits the per-level budget
// and invalidates every estimate) degrades to a full recompute.
func TopDownSparseFrom(tree *hierarchy.Tree, opts Options, prev *RecomputeState, changed map[string]bool) (SparseRelease, *RecomputeState, RecomputeStats, error) {
	depth := tree.Depth()
	var stats RecomputeStats
	if err := opts.validate(depth, depth); err != nil {
		return nil, nil, stats, err
	}
	if prev != nil && prev.depth != depth {
		prev = nil
	}

	// Lines 1-7: reuse the estimate runs of certified-unchanged nodes;
	// estimate every other node.
	states := make(map[string]*runState)
	var todo []*hierarchy.Node
	for _, nodes := range tree.ByLevel {
		for _, n := range nodes {
			if prev != nil && !changed[n.Path] {
				if ps, ok := prev.nodes[n.Path]; ok {
					states[n.Path] = &runState{hg: ps.hg}
					continue
				}
			}
			todo = append(todo, n)
		}
	}
	hg, err := estimateRuns(todo, opts, opts.Epsilon/float64(depth))
	if err != nil {
		return nil, nil, stats, err
	}
	dirty := make(map[string]bool, len(todo))
	for i, n := range todo {
		states[n.Path] = &runState{hg: hg[i]}
		dirty[n.Path] = true
	}
	stats.NodesEstimated, stats.NodesTotal = len(todo), len(states)

	// Lines 8-12.
	stats.ParentsMatched, stats.ParentsTotal, err = matchRuns(tree, states, prev, dirty, opts)
	if err != nil {
		return nil, nil, stats, err
	}

	// Line 13: leaves' updated runs become their final histograms. Every
	// leaf has upd set: matchRuns seeds the root (the only leaf of a
	// single-level tree) and fills or copies forward every deeper node.
	// Lines 14-15: back-substitution.
	out := make(SparseRelease, len(states))
	for _, leaf := range tree.Leaves() {
		out[leaf.Path] = updSparse(states[leaf.Path].upd)
	}
	sumUp(tree, out)
	return out, &RecomputeState{depth: depth, nodes: states}, stats, nil
}

// matchRuns is the sparse pipeline's matching pass: seed the root's
// updated runs with its estimate, then walk the levels top down. A
// parent re-matches when it or one of its children is dirty; otherwise
// every input to its matching is bit-identical to prev's, and so are
// its outputs, which are copied forward. The parents of a level that
// re-match fan out across opts.Workers goroutines: each reads only its
// own state (finalized at the previous level) and writes only its
// children's, every node has exactly one parent, and no map is written
// inside the fan-out.
//
// dirty starts as the set of re-estimated nodes (every node when prev
// is nil); after each level above the leaves it gains the children
// whose updated runs moved from prev's, the induction that decides
// whether a parent one level down must re-match. matchRuns returns how
// many parents re-matched and how many internal nodes there are.
func matchRuns(tree *hierarchy.Tree, states map[string]*runState, prev *RecomputeState, dirty map[string]bool, opts Options) (matched, total int, err error) {
	rs := states[tree.Root.Path]
	rs.upd = make([]updRun, 0, len(rs.hg))
	for _, r := range rs.hg {
		rs.upd = append(rs.upd, updRun{val: r.Size, vr: r.Var, count: r.Count})
	}

	for level := 0; level < tree.Depth()-1; level++ {
		var rerun []*hierarchy.Node
		for _, parent := range tree.ByLevel[level] {
			if len(parent.Children) == 0 {
				continue
			}
			total++
			rematch := dirty[parent.Path]
			for _, c := range parent.Children {
				rematch = rematch || dirty[c.Path]
			}
			if rematch {
				rerun = append(rerun, parent)
				continue
			}
			// Nothing here is dirty, so prev is non-nil and holds
			// every child.
			for _, c := range parent.Children {
				states[c.Path].upd = prev.nodes[c.Path].upd
			}
		}
		matched += len(rerun)
		err := forEachNode(rerun, opts.workerCount(len(rerun)), func(_ int, parent *hierarchy.Node) error {
			return matchParentRuns(states, parent, opts.Merge)
		})
		if err != nil {
			return matched, total, err
		}
		if level == tree.Depth()-2 {
			break // the children are leaves, which never match
		}
		for _, parent := range rerun {
			for _, c := range parent.Children {
				if !dirty[c.Path] && !updRunsEqual(states[c.Path].upd, prev.nodes[c.Path].upd) {
					dirty[c.Path] = true
				}
			}
		}
	}
	return matched, total, nil
}
