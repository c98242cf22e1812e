package experiments

import (
	"fmt"
	"time"

	"hcoc/internal/consistency"
	"hcoc/internal/dataset"
	"hcoc/internal/estimator"
	"hcoc/internal/histogram"
	"hcoc/internal/isotonic"
	"hcoc/internal/noise"
)

// AblationTable isolates the three design decisions DESIGN.md calls out:
// L1-vs-L2 isotonic regression inside the Hc method, weighted-vs-plain
// merging, and geometric-vs-Laplace noise. Each row reports the error of
// the paper's choice next to the alternative.
func AblationTable(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Title:   "Ablations: the paper's design choices vs alternatives (mean emd, eps=0.1)",
		Columns: []string{"Decision", "Paper choice", "Alternative", "Dataset"},
	}

	// 1. Hc with L1 (paper) vs L2 isotonic regression.
	tree, err := dataset.Tree(dataset.RaceWhite, dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale, Levels: 2})
	if err != nil {
		return Table{}, err
	}
	var l1, l2 Stat
	for run := 0; run < cfg.Runs; run++ {
		gen := noise.New(cfg.Seed + int64(run)*5413)
		p := estimator.Params{Epsilon: 0.1, K: cfg.K}
		h1, err := estimateHist(estimator.MethodHc, tree.Root.Hist, p, gen)
		if err != nil {
			return Table{}, err
		}
		h2, err := estimateHist(estimator.MethodHcL2, tree.Root.Hist, p, gen)
		if err != nil {
			return Table{}, err
		}
		l1.Add(float64(histogram.EMD(tree.Root.Hist, h1)))
		l2.Add(float64(histogram.EMD(tree.Root.Hist, h2)))
	}
	t.Rows = append(t.Rows, []string{
		"Hc isotonic norm", fmt.Sprintf("L1: %.0f", l1.Mean()), fmt.Sprintf("L2: %.0f", l2.Mean()), "White",
	})

	// 2. Weighted vs plain-average merging at the top level.
	htree, err := dataset.Tree(dataset.Housing, dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale, Levels: 2})
	if err != nil {
		return Table{}, err
	}
	var weighted, average Stat
	for run := 0; run < cfg.Runs; run++ {
		for _, merge := range []consistency.MergeStrategy{consistency.MergeWeighted, consistency.MergeAverage} {
			rel, err := consistency.TopDown(htree, consistency.Options{
				Epsilon: 0.2, K: cfg.K, Merge: merge, Seed: cfg.Seed + int64(run)*5413,
			})
			if err != nil {
				return Table{}, err
			}
			e := float64(histogram.EMD(htree.Root.Hist, rel[htree.Root.Path]))
			if merge == consistency.MergeWeighted {
				weighted.Add(e)
			} else {
				average.Add(e)
			}
		}
	}
	t.Rows = append(t.Rows, []string{
		"Merge strategy", fmt.Sprintf("weighted: %.0f", weighted.Mean()), fmt.Sprintf("average: %.0f", average.Mean()), "Synthetic",
	})

	// 3. Double-geometric (paper) vs rounded-Laplace noise in Hc.
	strees, err := dataset.Tree(dataset.RaceHawaiian, dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale, Levels: 2})
	if err != nil {
		return Table{}, err
	}
	var geo, lap Stat
	truth := strees.Root.Hist
	hc := truth.Truncate(cfg.K).Cumulative()
	g := truth.Groups()
	for run := 0; run < cfg.Runs; run++ {
		gen := noise.New(cfg.Seed + int64(run)*5413)
		ys := make([]float64, len(hc)-1)
		for j, v := range gen.AddDoubleGeometric(hc[:len(hc)-1], 1/0.1) {
			ys[j] = float64(v)
		}
		geo.Add(hcPipelineError(truth, ys, g))
		for j := range ys {
			ys[j] = float64(hc[j]) + roundHalf(gen.Laplace(1/0.1))
		}
		lap.Add(hcPipelineError(truth, ys, g))
	}
	t.Rows = append(t.Rows, []string{
		"Noise mechanism", fmt.Sprintf("geometric: %.0f", geo.Mean()), fmt.Sprintf("laplace: %.0f", lap.Mean()), "Hawaiian",
	})
	return t, nil
}

func roundHalf(x float64) float64 {
	if x >= 0 {
		return float64(int64(x + 0.5))
	}
	return -float64(int64(-x + 0.5))
}

// hcPipelineError finishes the Hc pipeline (isotonic L1, clamp, pin,
// convert) and returns the earthmover's error against the truth.
func hcPipelineError(truth histogram.Hist, ys []float64, g int64) float64 {
	fit := isotonic.FitL1(ys)
	isotonic.ClampBox(fit, 0, float64(g))
	est := make(histogram.Cumulative, len(fit)+1)
	for i, z := range fit {
		est[i] = int64(z + 0.5)
	}
	est[len(est)-1] = g
	return float64(histogram.EMD(truth, est.Hist()))
}

// TimingTable reports wall-clock time of a full top-down release per
// dataset, addressing the paper's "for computational reasons" remarks:
// the specialized solvers keep census-style workloads tractable.
func TimingTable(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Title:   "Release wall-clock time (3-level hierarchies, eps=1)",
		Columns: []string{"Dataset", "Nodes", "Groups", "Release time"},
	}
	for _, kind := range dataset.Kinds {
		tree, err := treeFor(kind, cfg, 3)
		if err != nil {
			return Table{}, err
		}
		start := time.Now()
		rel, err := consistency.TopDown(tree, consistency.Options{
			Epsilon: 1, K: cfg.K, Seed: cfg.Seed,
		})
		if err != nil {
			return Table{}, err
		}
		elapsed := time.Since(start)
		if err := rel.Check(tree); err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			kind.String(),
			fmt.Sprintf("%d", len(tree.Nodes())),
			fmt.Sprintf("%d", tree.Root.G()),
			elapsed.Round(time.Millisecond).String(),
		})
	}
	return t, nil
}
