package experiments

import (
	"fmt"

	"hcoc/internal/consistency"
	"hcoc/internal/dataset"
	"hcoc/internal/estimator"
	"hcoc/internal/hierarchy"
	"hcoc/internal/histogram"
	"hcoc/internal/noise"
)

// Config controls the scale and repetition of the experiments. The
// zero value is usable: it runs a laptop-scale version of the paper's
// setup.
type Config struct {
	// Scale multiplies the default dataset sizes (paper-scale is
	// roughly 1000x the default of 1.0).
	Scale float64
	// Runs is the number of repetitions averaged per point (the paper
	// uses 10).
	Runs int
	// Seed drives dataset generation and noise.
	Seed int64
	// K is the public maximum group size (the paper uses 100000).
	K int
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	if c.K == 0 {
		// The paper uses K = 100000 with true max sizes around 10000.
		// The default here keeps the same order-of-magnitude slack over
		// the generated data while keeping the sweeps fast; pass the
		// paper's value explicitly to reproduce it exactly.
		c.K = 20000
	}
	return c
}

// EpsSweep is the privacy-budget-per-level x-axis of Figures 4-6.
var EpsSweep = []float64{0.01, 0.05, 0.1, 0.5, 1.0}

// Table is a rendered experiment result with one row per configuration.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Series is one plotted line: Y (with standard errors) against X.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	Std  []float64
}

// estimateHist runs a single-node estimate and returns its histogram,
// without the per-group variances Estimate would expand and every
// experiment here discards.
func estimateHist(m estimator.Method, h histogram.Hist, p estimator.Params, gen *noise.Gen) (histogram.Hist, error) {
	runs, err := estimator.EstimateRuns(m, h, p, gen)
	if err != nil {
		return nil, err
	}
	return estimator.RunsHist(runs), nil
}

// levelErrors computes the paper's metric: the earthmover's distance per
// node, averaged within each level.
func levelErrors(tree *hierarchy.Tree, rel consistency.Release) []float64 {
	out := make([]float64, tree.Depth())
	for l, nodes := range tree.ByLevel {
		var sum int64
		for _, n := range nodes {
			sum += histogram.EMD(n.Hist, rel[n.Path])
		}
		out[l] = float64(sum) / float64(len(nodes))
	}
	return out
}

// runTopDown averages per-level errors of the top-down algorithm over
// cfg.Runs repetitions.
func runTopDown(tree *hierarchy.Tree, cfg Config, methods []estimator.Method, merge consistency.MergeStrategy, epsTotal float64) ([]Stat, error) {
	stats := make([]Stat, tree.Depth())
	for run := 0; run < cfg.Runs; run++ {
		rel, err := consistency.TopDown(tree, consistency.Options{
			Epsilon: epsTotal,
			K:       cfg.K,
			Methods: methods,
			Merge:   merge,
			Seed:    cfg.Seed + int64(run)*7919,
		})
		if err != nil {
			return nil, err
		}
		for l, e := range levelErrors(tree, rel) {
			stats[l].Add(e)
		}
	}
	return stats, nil
}

// runBottomUp averages per-level errors of the bottom-up baseline.
func runBottomUp(tree *hierarchy.Tree, cfg Config, method estimator.Method, epsTotal float64) ([]Stat, error) {
	stats := make([]Stat, tree.Depth())
	for run := 0; run < cfg.Runs; run++ {
		rel, err := consistency.BottomUp(tree, consistency.Options{
			Epsilon: epsTotal,
			K:       cfg.K,
			Methods: []estimator.Method{method},
			Seed:    cfg.Seed + int64(run)*7919,
		})
		if err != nil {
			return nil, err
		}
		for l, e := range levelErrors(tree, rel) {
			stats[l].Add(e)
		}
	}
	return stats, nil
}

// DatasetStats reproduces the dataset-statistics table of Section 6.1
// (group counts, people/trips, distinct sizes) for the generated
// stand-in datasets.
func DatasetStats(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Title:   "Section 6.1: dataset statistics",
		Columns: []string{"Data", "# groups", "# people/trip", "# unique size", "max size"},
	}
	for _, kind := range dataset.Kinds {
		tree, err := dataset.Tree(kind, dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale, Levels: 2})
		if err != nil {
			return Table{}, err
		}
		s := dataset.Summarize(tree)
		t.Rows = append(t.Rows, []string{
			kind.String(),
			fmt.Sprintf("%d", s.Groups),
			fmt.Sprintf("%d", s.People),
			fmt.Sprintf("%d", s.DistinctSizes),
			fmt.Sprintf("%d", s.MaxSize),
		})
	}
	return t, nil
}

// NaiveTable reproduces Section 6.2.1: the naive method's error at the
// national level with eps = 1, shown to be orders of magnitude worse
// than Hc (included for reference).
func NaiveTable(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Title:   "Section 6.2.1: naive method error at eps=1 (national level)",
		Columns: []string{"Data", "Naive emd", "Hc emd", "Naive/Hc ratio"},
	}
	for _, kind := range dataset.Kinds {
		tree, err := dataset.Tree(kind, dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale, Levels: 2})
		if err != nil {
			return Table{}, err
		}
		var naive, hc Stat
		for run := 0; run < cfg.Runs; run++ {
			gen := noise.New(cfg.Seed + int64(run)*104729)
			p := estimator.Params{Epsilon: 1, K: cfg.K}
			estN, err := estimateHist(estimator.MethodNaive, tree.Root.Hist, p, gen)
			if err != nil {
				return Table{}, err
			}
			estC, err := estimateHist(estimator.MethodHc, tree.Root.Hist, p, gen)
			if err != nil {
				return Table{}, err
			}
			naive.Add(float64(histogram.EMD(tree.Root.Hist, estN)))
			hc.Add(float64(histogram.EMD(tree.Root.Hist, estC)))
		}
		ratio := 0.0
		if hc.Mean() > 0 {
			ratio = naive.Mean() / hc.Mean()
		}
		t.Rows = append(t.Rows, []string{
			kind.String(),
			fmt.Sprintf("%.0f", naive.Mean()),
			fmt.Sprintf("%.0f", hc.Mean()),
			fmt.Sprintf("%.1fx", ratio),
		})
	}
	return t, nil
}

// treeFor builds the hierarchy an experiment uses: 3-level experiments
// restrict census-like data to the west coast as in the paper; taxi
// always uses its full Manhattan geography.
func treeFor(kind dataset.Kind, cfg Config, levels int) (*hierarchy.Tree, error) {
	dc := dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale, Levels: levels}
	if levels == 3 && kind != dataset.Taxi {
		dc.WestCoast = true
	}
	return dataset.Tree(kind, dc)
}

// BottomUpTable reproduces Section 6.2.2: per-level error of bottom-up
// aggregation versus the Hc top-down consistency algorithm at total
// eps = 1 over 3-level hierarchies.
func BottomUpTable(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Title:   "Section 6.2.2: Bottom-Up vs Hc consistency (total eps=1, 3 levels)",
		Columns: []string{"Level", "Algorithm"},
	}
	type result struct {
		bu, td []Stat
	}
	results := make([]result, 0, len(dataset.Kinds))
	for _, kind := range dataset.Kinds {
		t.Columns = append(t.Columns, kind.String())
		tree, err := treeFor(kind, cfg, 3)
		if err != nil {
			return Table{}, err
		}
		bu, err := runBottomUp(tree, cfg, estimator.MethodHc, 1)
		if err != nil {
			return Table{}, err
		}
		td, err := runTopDown(tree, cfg, []estimator.Method{estimator.MethodHc}, consistency.MergeWeighted, 1)
		if err != nil {
			return Table{}, err
		}
		results = append(results, result{bu: bu, td: td})
	}
	for level := 0; level < 3; level++ {
		for _, algo := range []string{"BU", "Hc"} {
			row := []string{fmt.Sprintf("Level %d", level), algo}
			for _, res := range results {
				stats := res.bu
				if algo == "Hc" {
					stats = res.td
				}
				row = append(row, fmt.Sprintf("%.1f", stats[level].Mean()))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Fig1 reproduces Figure 1: where each single-node method's error lives.
// For every group size with a nonzero true count, it emits the true
// cumulative count (x) against the signed estimation error of the
// cumulative histogram at that size (y) — the Hg method's error
// concentrates at small sizes while the Hc method's error is spread out.
func Fig1(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	tree, err := dataset.Tree(dataset.Housing, dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale, Levels: 2})
	if err != nil {
		return nil, err
	}
	truth := tree.Root.Hist
	trueCum := truth.Cumulative()
	var out []Series
	for _, m := range []estimator.Method{estimator.MethodHg, estimator.MethodHc} {
		gen := noise.New(cfg.Seed + 31)
		est, err := estimateHist(m, truth, estimator.Params{Epsilon: 1, K: cfg.K}, gen)
		if err != nil {
			return nil, err
		}
		estCum := est.Pad(len(truth)).Cumulative()
		s := Series{Name: m.String()}
		for size, count := range truth {
			if count == 0 {
				continue
			}
			s.X = append(s.X, float64(trueCum[size]))
			s.Y = append(s.Y, float64(estCum[size]-trueCum[size]))
		}
		out = append(out, s)
	}
	return out, nil
}

// fig4Datasets are the datasets shown in Figure 4.
var fig4Datasets = []dataset.Kind{dataset.Housing, dataset.RaceWhite, dataset.RaceHawaiian}

// fig4Combos are the method combinations (top level x second level) of
// Figure 4; Hg x Hg is omitted there because plain averaging makes it
// skew the plots.
var fig4Combos = [][]estimator.Method{
	{estimator.MethodHc, estimator.MethodHc},
	{estimator.MethodHc, estimator.MethodHg},
	{estimator.MethodHg, estimator.MethodHc},
}

// Fig4 reproduces Figure 4: weighted-average versus plain-average
// merging for 2-level hierarchies across the eps sweep. Series are named
// dataset/levelN/combo/merge.
func Fig4(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	var out []Series
	for _, kind := range fig4Datasets {
		tree, err := treeFor(kind, cfg, 2)
		if err != nil {
			return nil, err
		}
		for _, combo := range fig4Combos {
			for _, merge := range []consistency.MergeStrategy{consistency.MergeWeighted, consistency.MergeAverage} {
				series := make([]Series, tree.Depth())
				for l := range series {
					series[l] = Series{Name: fmt.Sprintf("%s/level%d/%sx%s/%s",
						kind, l, combo[0], combo[1], merge)}
				}
				for _, eps := range EpsSweep {
					stats, err := runTopDown(tree, cfg, combo, merge, eps*float64(tree.Depth()))
					if err != nil {
						return nil, err
					}
					for l := range series {
						series[l].X = append(series[l].X, eps)
						series[l].Y = append(series[l].Y, stats[l].Mean())
						series[l].Std = append(series[l].Std, stats[l].StdErr())
					}
				}
				out = append(out, series...)
			}
		}
	}
	return out, nil
}

// consistencyFigure runs the Figure 5/6 layout: for each dataset and
// each uniform method combination, per-level error across the eps
// sweep, plus the omniscient yardstick per level.
func consistencyFigure(cfg Config, kinds []dataset.Kind, levels int, methods []estimator.Method) ([]Series, error) {
	var out []Series
	for _, kind := range kinds {
		tree, err := treeFor(kind, cfg, levels)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			combo := make([]estimator.Method, tree.Depth())
			for i := range combo {
				combo[i] = m
			}
			series := make([]Series, tree.Depth())
			for l := range series {
				series[l] = Series{Name: fmt.Sprintf("%s/level%d/%s", kind, l, comboName(combo))}
			}
			for _, eps := range EpsSweep {
				stats, err := runTopDown(tree, cfg, combo, consistency.MergeWeighted, eps*float64(tree.Depth()))
				if err != nil {
					return nil, err
				}
				for l := range series {
					series[l].X = append(series[l].X, eps)
					series[l].Y = append(series[l].Y, stats[l].Mean())
					series[l].Std = append(series[l].Std, stats[l].StdErr())
				}
			}
			out = append(out, series...)
		}
		// The omniscient yardstick per level.
		for l, nodes := range tree.ByLevel {
			s := Series{Name: fmt.Sprintf("%s/level%d/omniscient", kind, l)}
			var distinct Stat
			for _, n := range nodes {
				distinct.Add(float64(n.Hist.DistinctSizes()))
			}
			for _, eps := range EpsSweep {
				s.X = append(s.X, eps)
				s.Y = append(s.Y, OmniscientError(int(distinct.Mean()), eps, 1))
				s.Std = append(s.Std, 0)
			}
			out = append(out, s)
		}
	}
	return out, nil
}

func comboName(combo []estimator.Method) string {
	name := ""
	for i, m := range combo {
		if i > 0 {
			name += "x"
		}
		name += m.String()
	}
	return name
}

// Fig5 reproduces Figure 5: 2-level consistency (Hg x Hg versus
// Hc x Hc versus the omniscient yardstick) on all four datasets.
func Fig5(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	return consistencyFigure(cfg, dataset.Kinds, 2,
		[]estimator.Method{estimator.MethodHg, estimator.MethodHc})
}

// Fig6 reproduces Figure 6: 3-level consistency (west-coast hierarchies
// for the census-like datasets, full geography for taxi).
func Fig6(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	return consistencyFigure(cfg, dataset.Kinds, 3,
		[]estimator.Method{estimator.MethodHg, estimator.MethodHc})
}
