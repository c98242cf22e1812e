// Command hcoc-release reads a group CSV (as produced by hcoc-gen),
// runs the differentially private hierarchical release, verifies the
// output constraints, and prints the released histogram of every node.
//
// Usage:
//
//	hcoc-gen -dataset housing -o housing.csv
//	hcoc-release -in housing.csv -epsilon 1.0 -root US
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hcoc"
	"hcoc/internal/dataset"
)

func main() {
	var (
		in      = flag.String("in", "", "input CSV of groups (required)")
		root    = flag.String("root", "US", "root region name")
		epsilon = flag.Float64("epsilon", 1.0, "total privacy budget: finite, and at least 2^-40 (about 9.1e-13) per level, since top-down splits it evenly over the tree's levels")
		k       = flag.Int("k", hcoc.DefaultK, "public max group size K")
		method  = flag.String("method", "hc", "estimation method per level: hc|hg|naive, comma-separated for per-level choices")
		merge   = flag.String("merge", "weighted", "merge strategy: weighted|average")
		seed    = flag.Int64("seed", 1, "random seed")
		trunc   = flag.Int("print", 20, "print at most this many leading cells per node (0 = all)")
		out     = flag.String("o", "", "also write the release artifact as JSON to this file")
		format  = flag.String("format", "sparse", "artifact format for -o: sparse (run-length v2) | dense (v1)")
	)
	flag.Parse()
	if err := run(os.Stdout, *in, *root, *epsilon, *k, *method, *merge, *seed, *trunc, *out, *format); err != nil {
		fmt.Fprintf(os.Stderr, "hcoc-release: %v\n", err)
		os.Exit(1)
	}
}

func parseMethods(s string) ([]hcoc.Method, error) {
	var out []hcoc.Method
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "hc":
			out = append(out, hcoc.MethodHc)
		case "hg":
			out = append(out, hcoc.MethodHg)
		case "naive":
			out = append(out, hcoc.MethodNaive)
		default:
			return nil, fmt.Errorf("unknown method %q (want hc|hg|naive)", part)
		}
	}
	return out, nil
}

func run(w io.Writer, in, root string, epsilon float64, k int, method, merge string, seed int64, trunc int, out, format string) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	if format != "sparse" && format != "dense" {
		return fmt.Errorf("unknown artifact format %q (want sparse|dense)", format)
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	groups, err := dataset.ReadGroups(f)
	if err != nil {
		return err
	}
	tree, err := hcoc.BuildHierarchy(root, groups)
	if err != nil {
		return err
	}
	methods, err := parseMethods(method)
	if err != nil {
		return err
	}
	var mergeStrategy hcoc.MergeStrategy
	switch merge {
	case "weighted":
		mergeStrategy = hcoc.MergeWeighted
	case "average":
		mergeStrategy = hcoc.MergeAverage
	default:
		return fmt.Errorf("unknown merge strategy %q (want weighted|average)", merge)
	}
	rel, err := hcoc.ReleaseSparse(tree, hcoc.Options{
		Epsilon: epsilon, K: k, Methods: methods, Merge: mergeStrategy, Seed: seed,
	})
	if err != nil {
		return err
	}
	if err := hcoc.CheckSparse(tree, rel); err != nil {
		return fmt.Errorf("released data failed verification: %w", err)
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if format == "sparse" {
			err = hcoc.WriteReleaseSparse(f, rel, epsilon)
		} else {
			err = hcoc.WriteRelease(f, rel.Dense(), epsilon)
		}
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "released %d nodes (epsilon=%g, all constraints verified)\n", len(rel), epsilon)
	tree.Walk(func(n *hcoc.Node) {
		h := rel[n.Path].Hist()
		shown := h
		suffix := ""
		if trunc > 0 && len(h) > trunc {
			shown = h[:trunc]
			suffix = fmt.Sprintf(" ... (%d more cells)", len(h)-trunc)
		}
		fmt.Fprintf(w, "%s: groups=%d emd_vs_true=%d H=%v%s\n",
			n.Path, h.Groups(), hcoc.EMD(n.Hist, h), shown, suffix)
	})
	return nil
}
