package hcoc

import (
	"fmt"

	"hcoc/internal/consistency"
	"hcoc/internal/dataset"
	"hcoc/internal/estimator"
	"hcoc/internal/hierarchy"
	"hcoc/internal/histogram"
	"hcoc/internal/noise"
)

// Histogram is a count-of-counts histogram: Histogram[i] is the number
// of groups of size i.
type Histogram = histogram.Hist

// SparseHistogram is the run-length representation of a count-of-counts
// histogram: sorted (size, count) runs, one per distinct group size.
// Conversions to and from Histogram (Sparse/Hist) are lossless; on
// real count-of-counts data — where a node occupies a handful of
// distinct sizes under a public bound of DefaultK — it is smaller by
// orders of magnitude, which is what the serving engine's cache
// capacity is accounted in.
type SparseHistogram = histogram.Sparse

// SparseRun is one run of a SparseHistogram: Count groups of size Size.
type SparseRun = histogram.Run

// Group is one group record: its size and the path of region names
// (below the root) of the leaf it belongs to.
type Group = hierarchy.Group

// Tree is a region hierarchy annotated with true histograms; build one
// with BuildHierarchy.
type Tree = hierarchy.Tree

// Node is one region in a Tree.
type Node = hierarchy.Node

// Method selects the single-node estimation strategy of Section 4.
type Method = estimator.Method

// Estimation methods. MethodHc is the paper's recommended default.
const (
	MethodHc    = estimator.MethodHc
	MethodHg    = estimator.MethodHg
	MethodNaive = estimator.MethodNaive
	MethodHcL2  = estimator.MethodHcL2
)

// MergeStrategy selects how matched parent/child size estimates are
// reconciled during hierarchical consistency (Section 5.3).
type MergeStrategy = consistency.MergeStrategy

// Merge strategies. MergeWeighted (variance-weighted averaging) is the
// paper's recommended default.
const (
	MergeWeighted = consistency.MergeWeighted
	MergeAverage  = consistency.MergeAverage
)

// DefaultK is the default public upper bound on group size, the value
// used in the paper's experiments.
const DefaultK = 100000

// MaxGroupSize is the largest group size, and the largest public bound
// K, that the service accepts: 40x DefaultK. Every dense histogram is
// as long as the largest size it holds (a release allocates K cells per
// node), so a request naming a larger size would make a few bytes of
// input cost gigabytes. ReadReleaseSparse applies the same bound to the
// sizes an artifact declares.
const MaxGroupSize = hierarchy.MaxGroupSize

// Options configures a hierarchical release.
type Options struct {
	// Epsilon is the total privacy-loss budget; it is split evenly
	// across hierarchy levels. Required.
	Epsilon float64
	// K is the public upper bound on group size; defaults to DefaultK.
	K int
	// Methods gives the estimation method per level; a single entry is
	// broadcast. Defaults to MethodHc everywhere.
	Methods []Method
	// Merge defaults to MergeWeighted.
	Merge MergeStrategy
	// Seed makes the release reproducible; releases with the same seed,
	// data and options are identical.
	Seed int64
	// Workers bounds the goroutines used for the parallel stages of a
	// release (per-node estimation, top-down and bottom-up alike, and
	// per-parent matching). 0 means GOMAXPROCS. The released histograms
	// do not depend on Workers.
	Workers int
}

func (o Options) internal() consistency.Options {
	k := o.K
	if k == 0 {
		k = DefaultK
	}
	return consistency.Options{
		Epsilon: o.Epsilon,
		K:       k,
		Methods: o.Methods,
		Merge:   o.Merge,
		Seed:    o.Seed,
		Workers: o.Workers,
	}
}

// Histograms maps hierarchy node paths (Node.Path) to released
// histograms; it is the result type of a hierarchical release.
type Histograms = consistency.Release

// SparseHistograms is the run-length result of a hierarchical release:
// node paths to sparse histograms. Dense() recovers Histograms exactly.
type SparseHistograms = consistency.SparseRelease

// BuildHierarchy builds the region tree from group records. Every group
// must carry a path of the same depth; the root histogram and every
// intermediate histogram are derived automatically.
func BuildHierarchy(rootName string, groups []Group) (*Tree, error) {
	return hierarchy.BuildTree(rootName, groups)
}

// ReleaseHierarchy runs the paper's top-down consistency algorithm
// (Algorithm 1) and returns a consistent private release for every node.
func ReleaseHierarchy(tree *Tree, opts Options) (Histograms, error) {
	return consistency.TopDown(tree, opts.internal())
}

// Release is shorthand for ReleaseHierarchy.
func Release(tree *Tree, opts Options) (Histograms, error) {
	return ReleaseHierarchy(tree, opts)
}

// ReleaseSparse runs the same top-down algorithm but keeps the release
// in run-length form end to end: identical histograms (the sparse
// pipeline is differentially tested bit-for-bit against the dense one),
// a fraction of the allocations, and a result sized by distinct group
// sizes rather than K. Long-lived holders — caches, servers — should
// prefer it. It is ReleaseSparseFrom with no prior state, the state
// dropped: both run the one sparse pipeline.
func ReleaseSparse(tree *Tree, opts Options) (SparseHistograms, error) {
	return consistency.TopDownSparse(tree, opts.internal())
}

// ReleaseState is the opaque per-node intermediate state of a sparse
// top-down release, retained so a later release of a slightly mutated
// tree can reuse the untouched work bit-for-bit (see ReleaseSparseFrom).
type ReleaseState = consistency.RecomputeState

// ReleaseStats counts how much of an incremental release was actually
// recomputed versus reused.
type ReleaseStats = consistency.RecomputeStats

// ReleaseSparseFrom is ReleaseSparse with incremental reuse: prev is
// the state returned by an earlier call for a previous version of the
// tree, and changed names every node path whose histogram or child set
// differs from that version (a delta's touched leaves plus all their
// ancestors). The release is bit-identical to ReleaseSparse(tree, opts)
// — differentially tested — but skips DP estimation for untouched
// nodes and matching for parents whose inputs are unchanged. A nil
// prev performs a full release and just captures state.
func ReleaseSparseFrom(tree *Tree, opts Options, prev *ReleaseState, changed map[string]bool) (SparseHistograms, *ReleaseState, ReleaseStats, error) {
	return consistency.TopDownSparseFrom(tree, opts.internal(), prev, changed)
}

// ReleaseBottomUp runs the bottom-up baseline: all budget at the leaves,
// parents as sums. It satisfies the same four output requirements but
// typically has much higher error at upper levels (Section 6.2.2).
func ReleaseBottomUp(tree *Tree, opts Options) (Histograms, error) {
	return consistency.BottomUp(tree, opts.internal())
}

// ReleaseBottomUpSparse is ReleaseBottomUp in run-length form.
func ReleaseBottomUpSparse(tree *Tree, opts Options) (SparseHistograms, error) {
	return consistency.BottomUpSparse(tree, opts.internal())
}

// ReleaseSingle estimates a single (non-hierarchical) count-of-counts
// histogram with the given method — the Section 4 problem.
func ReleaseSingle(h Histogram, method Method, opts Options) (Histogram, error) {
	if err := noise.CheckEpsilon(opts.Epsilon, 1); err != nil {
		return nil, fmt.Errorf("hcoc: %w", err)
	}
	k := opts.K
	if k == 0 {
		k = DefaultK
	}
	runs, err := estimator.EstimateRuns(method, h, estimator.Params{Epsilon: opts.Epsilon, K: k}, noise.New(opts.Seed))
	if err != nil {
		return nil, err
	}
	return estimator.RunsHist(runs), nil
}

// Check verifies the four release requirements (integrality,
// nonnegativity, group-size totals, hierarchical consistency) against
// the tree's public structure.
func Check(tree *Tree, rel Histograms) error {
	return rel.Check(tree)
}

// CheckSparse is Check for a run-length release.
func CheckSparse(tree *Tree, rel SparseHistograms) error {
	return rel.Check(tree)
}

// EMD computes the earthmover's distance between two count-of-counts
// histograms: the minimum number of entities to add or remove across
// groups to transform one into the other (the paper's error metric).
func EMD(a, b Histogram) int64 {
	return histogram.EMD(a, b)
}

// EMDSparse is EMD over run-length histograms, in time proportional to
// the number of runs.
func EMDSparse(a, b SparseHistogram) int64 {
	return histogram.EMDSparse(a, b)
}

// DatasetKind identifies one of the synthetic evaluation workloads
// bundled with the library (stand-ins for the paper's datasets).
type DatasetKind = dataset.Kind

// Synthetic workloads mirroring Section 6.1.
const (
	DatasetHousing      = dataset.Housing
	DatasetTaxi         = dataset.Taxi
	DatasetRaceWhite    = dataset.RaceWhite
	DatasetRaceHawaiian = dataset.RaceHawaiian
)

// DatasetConfig configures synthetic workload generation.
type DatasetConfig = dataset.Config

// SyntheticGroups generates one of the bundled synthetic workloads.
func SyntheticGroups(kind DatasetKind, cfg DatasetConfig) ([]Group, error) {
	return dataset.Generate(kind, cfg)
}

// SyntheticTree generates a workload and builds its hierarchy in one
// step.
func SyntheticTree(kind DatasetKind, cfg DatasetConfig) (*Tree, error) {
	return dataset.Tree(kind, cfg)
}
