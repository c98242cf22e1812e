package hcoc

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"hcoc/internal/consistency"
	"hcoc/internal/dataset"
	"hcoc/internal/estimator"
	"hcoc/internal/experiments"
	"hcoc/internal/histogram"
	"hcoc/internal/isotonic"
	"hcoc/internal/matching"
	"hcoc/internal/noise"
)

// benchCfg keeps each benchmark iteration around a second; raise Scale,
// Runs, and K (e.g. via cmd/hcoc-bench) to regenerate the experiments at
// larger scale.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.02, Runs: 2, Seed: 1, K: 2000}
}

// BenchmarkDatasetStats regenerates the Section 6.1 dataset-statistics
// table.
func BenchmarkDatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DatasetStats(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableNaive regenerates the Section 6.2.1 naive-method error
// table and reports the naive-to-Hc error ratio on the housing data
// (the paper reports several orders of magnitude).
func BenchmarkTableNaive(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.NaiveTable(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRatio(b, t)
}

func reportRatio(b *testing.B, t experiments.Table) {
	b.Helper()
	if len(t.Rows) == 0 {
		return
	}
	var ratio float64
	if _, err := fmt.Sscanf(t.Rows[0][3], "%fx", &ratio); err == nil {
		b.ReportMetric(ratio, "naive/hc-ratio")
	}
}

// BenchmarkTableBottomUp regenerates the Section 6.2.2 bottom-up versus
// top-down table.
func BenchmarkTableBottomUp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BottomUpTable(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1 regenerates the Figure 1 error-location series.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates the Figure 4 merge-strategy comparison.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the Figure 5 2-level consistency sweep.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates the Figure 6 3-level consistency sweep.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelease measures a full hierarchical release (the paper's
// headline operation) on three realistic workload shapes — housing
// (sparse national tail), census (RaceHawaiian: many groups, a handful
// of distinct sizes) and taxi (dense, large sizes) — through both the
// dense per-group reference pipeline and the run-length production
// pipeline. The two release bit-for-bit identical histograms (enforced
// by the consistency differential tests); the sparse variant's point is
// the allocations column.
func BenchmarkRelease(b *testing.B) {
	workloads := []struct {
		name string
		kind DatasetKind
		cfg  DatasetConfig
		k    int
	}{
		{"housing", DatasetHousing, DatasetConfig{Seed: 1, Scale: 0.1, Levels: 3, WestCoast: true}, 20000},
		{"census", DatasetRaceHawaiian, DatasetConfig{Seed: 1, Scale: 0.5}, 20000},
		{"taxi", DatasetTaxi, DatasetConfig{Seed: 1, Scale: 0.2, Levels: 3}, 20000},
	}
	for _, w := range workloads {
		tree, err := SyntheticTree(w.kind, w.cfg)
		if err != nil {
			b.Fatal(err)
		}
		opts := Options{Epsilon: 1, K: w.k, Seed: 1}
		b.Run(w.name+"/dense", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts.Seed = int64(i)
				if _, err := consistency.TopDownDense(tree, opts.internal()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.name+"/sparse", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts.Seed = int64(i)
				if _, err := ReleaseSparse(tree, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIsotonicNorm compares the Hc method under L1 (the
// paper's choice) and L2 isotonic regression, reporting both errors.
func BenchmarkAblationIsotonicNorm(b *testing.B) {
	tree, err := SyntheticTree(DatasetRaceWhite, DatasetConfig{Seed: 1, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	truth := tree.Root.Hist
	p := estimator.Params{Epsilon: 0.1, K: 20000}
	var l1, l2 float64
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := noise.New(int64(i))
		r1, err := estimator.Estimate(estimator.MethodHc, truth, p, gen)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := estimator.Estimate(estimator.MethodHcL2, truth, p, gen)
		if err != nil {
			b.Fatal(err)
		}
		l1 += float64(histogram.EMD(truth, r1.Hist))
		l2 += float64(histogram.EMD(truth, r2.Hist))
		n++
	}
	b.ReportMetric(l1/float64(n), "emd-L1")
	b.ReportMetric(l2/float64(n), "emd-L2")
}

// BenchmarkAblationMerge compares weighted and plain-average merging at
// the top level (the Figure 4 design decision) and reports both errors.
func BenchmarkAblationMerge(b *testing.B) {
	tree, err := SyntheticTree(DatasetHousing, DatasetConfig{Seed: 1, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	var weighted, average float64
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, merge := range []MergeStrategy{MergeWeighted, MergeAverage} {
			rel, err := consistency.TopDown(tree, consistency.Options{
				Epsilon: 0.2, K: 20000, Merge: merge, Seed: int64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			e := float64(EMD(tree.Root.Hist, rel[tree.Root.Path]))
			if merge == MergeWeighted {
				weighted += e
			} else {
				average += e
			}
		}
		n++
	}
	b.ReportMetric(weighted/float64(n), "emd-weighted")
	b.ReportMetric(average/float64(n), "emd-average")
}

// BenchmarkAblationNoise compares exact double-geometric noise with
// rounded Laplace noise inside the Hc pipeline — the paper prefers the
// geometric mechanism for integrality and lower variance.
func BenchmarkAblationNoise(b *testing.B) {
	tree, err := SyntheticTree(DatasetRaceHawaiian, DatasetConfig{Seed: 1, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	truth := tree.Root.Hist
	hc := truth.Truncate(2000).Cumulative()
	g := truth.Groups()
	var geo, lap float64
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := noise.New(int64(i))
		// Geometric pipeline.
		ys := make([]float64, len(hc)-1)
		for j, v := range gen.AddDoubleGeometric(hc[:len(hc)-1], 1/0.1) {
			ys[j] = float64(v)
		}
		geo += pipelineError(truth, ys, g)
		// Rounded-Laplace pipeline.
		for j := range ys {
			ys[j] = float64(hc[j]) + math.Round(gen.Laplace(1/0.1))
		}
		lap += pipelineError(truth, ys, g)
		n++
	}
	b.ReportMetric(geo/float64(n), "emd-geometric")
	b.ReportMetric(lap/float64(n), "emd-laplace")
}

func pipelineError(truth histogram.Hist, ys []float64, g int64) float64 {
	fit := isotonic.FitL1(ys)
	isotonic.ClampBox(fit, 0, float64(g))
	est := make(histogram.Cumulative, len(fit)+1)
	for i, z := range fit {
		est[i] = int64(z + 0.5)
	}
	est[len(est)-1] = g
	return float64(histogram.EMD(truth, est.Hist()))
}

// BenchmarkIsotonicL1 and BenchmarkIsotonicL2 measure the hand-rolled
// solvers on noisy monotone inputs of realistic length.
func BenchmarkIsotonicL1(b *testing.B) { benchIsotonic(b, isotonic.FitL1) }
func BenchmarkIsotonicL2(b *testing.B) { benchIsotonic(b, isotonic.FitL2) }

func benchIsotonic(b *testing.B, fit func([]float64) []float64) {
	gen := noise.New(1)
	ys := make([]float64, 100000)
	for i := range ys {
		ys[i] = float64(i)/100 + float64(gen.DoubleGeometric(10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit(ys)
	}
}

// BenchmarkMatching measures Algorithm 2 on a large instance (the paper
// notes generic assignment solvers are O(G^3), unusable at census
// scale).
func BenchmarkMatching(b *testing.B) {
	gen := noise.New(2)
	const nChildren, perChild = 50, 2000
	children := make([]histogram.GroupSizes, nChildren)
	var all histogram.GroupSizes
	for i := range children {
		c := make(histogram.GroupSizes, perChild)
		for j := range c {
			c[j] = int64(j/10) + gen.DoubleGeometric(2)
			if c[j] < 0 {
				c[j] = 0
			}
		}
		c.Sort()
		children[i] = c
		all = append(all, c...)
	}
	parent := all.Clone()
	parent.Sort()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matching.Compute(parent, children); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMD measures the earthmover's distance (Lemma 1): the
// dense linear-time cell scan against the run-merge scan, on the
// housing national histogram (sparse with long gaps between the large
// group-quarters sizes — the shape where skipping empty cells pays).
func BenchmarkEMD(b *testing.B) {
	tree, err := SyntheticTree(DatasetHousing, DatasetConfig{Seed: 1, Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	truth := tree.Root.Hist
	shifted := truth.GroupSizes()
	for i := range shifted {
		shifted[i]++
	}
	other := shifted.Hist()
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if histogram.EMD(truth, other) != truth.Groups() {
				b.Fatal("unexpected emd")
			}
		}
	})
	truthS, otherS := truth.Sparse(), other.Sparse()
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if histogram.EMDSparse(truthS, otherS) != truthS.Groups() {
				b.Fatal("unexpected emd")
			}
		}
	})
}

// BenchmarkEstimators measures the three single-node methods on the
// housing national histogram.
func BenchmarkEstimators(b *testing.B) {
	tree, err := SyntheticTree(DatasetHousing, DatasetConfig{Seed: 1, Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	truth := tree.Root.Hist
	for _, m := range []Method{MethodHc, MethodHg, MethodNaive} {
		b.Run(m.String(), func(b *testing.B) {
			p := estimator.Params{Epsilon: 1, K: 20000}
			gen := noise.New(3)
			for i := 0; i < b.N; i++ {
				if _, err := estimator.Estimate(m, truth, p, gen); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateHc measures the Hc kernel behind every node of a
// fresh release: one double-geometric draw per cumulative cell, then
// the L1 fit, at DefaultK on the census-shaped RaceHawaiian root. Its
// cost follows K, not the handful of distinct sizes, so it also
// reports ns per cell.
func BenchmarkEstimateHc(b *testing.B) {
	tree, err := SyntheticTree(DatasetRaceHawaiian, DatasetConfig{Seed: 1, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	truth := tree.Root.Hist
	p := estimator.Params{Epsilon: 0.5, K: DefaultK}
	gen := noise.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimator.EstimateRuns(estimator.MethodHc, truth, p, gen); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultK, "ns/cell")
}

// BenchmarkGenerate measures the synthetic workload generators.
func BenchmarkGenerate(b *testing.B) {
	for _, kind := range dataset.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dataset.Generate(kind, dataset.Config{Seed: 1, Scale: 0.05}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMatching compares Algorithm 2 against the generic
// 2-approximation the paper rules out, reporting both matching costs on
// the same instance (Algorithm 2 is optimal, so its cost is a lower
// bound).
func BenchmarkAblationMatching(b *testing.B) {
	gen := noise.New(5)
	children := make([]histogram.GroupSizes, 4)
	var all histogram.GroupSizes
	for i := range children {
		c := make(histogram.GroupSizes, 300)
		for j := range c {
			c[j] = int64(j/5) + gen.DoubleGeometric(2)
			if c[j] < 0 {
				c[j] = 0
			}
		}
		c.Sort()
		children[i] = c
		all = append(all, c...)
	}
	parent := all.Clone()
	for i := range parent {
		parent[i] += gen.DoubleGeometric(2)
		if parent[i] < 0 {
			parent[i] = 0
		}
	}
	parent.Sort()
	var optCost, greedyCost int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := matching.Compute(parent, children)
		if err != nil {
			b.Fatal(err)
		}
		greedy, err := matching.Greedy2Approx(parent, children)
		if err != nil {
			b.Fatal(err)
		}
		optCost = matching.Cost(parent, children, opt)
		greedyCost = matching.Cost(parent, children, greedy)
	}
	b.ReportMetric(float64(optCost), "cost-algorithm2")
	b.ReportMetric(float64(greedyCost), "cost-2approx")
}

// BenchmarkPrivateGroupCounts measures the footnote-5 extension.
func BenchmarkPrivateGroupCounts(b *testing.B) {
	tree, err := SyntheticTree(DatasetHousing, DatasetConfig{Seed: 1, Scale: 0.1, Levels: 3, WestCoast: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PrivateGroupCounts(tree, 1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChooseMethod measures the footnote-4 selector.
func BenchmarkChooseMethod(b *testing.B) {
	tree, err := SyntheticTree(DatasetRaceWhite, DatasetConfig{Seed: 1, Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ChooseMethod(tree.Root.Hist, 0.1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializeRelease measures artifact round-trips.
func BenchmarkSerializeRelease(b *testing.B) {
	tree, err := SyntheticTree(DatasetRaceHawaiian, DatasetConfig{Seed: 1, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	rel, err := Release(tree, Options{Epsilon: 1, K: 5000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteRelease(&buf, rel, 1); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadRelease(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoiseSamplers compares the float-inversion and exact-integer
// double-geometric samplers.
func BenchmarkNoiseSamplers(b *testing.B) {
	b.Run("inversion", func(b *testing.B) {
		gen := noise.New(1)
		for i := 0; i < b.N; i++ {
			gen.DoubleGeometric(2)
		}
	})
	b.Run("exact", func(b *testing.B) {
		gen := noise.New(1)
		for i := 0; i < b.N; i++ {
			gen.DoubleGeometricExact(2, 1)
		}
	})
}
