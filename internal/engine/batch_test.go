package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hcoc/internal/query"
	"hcoc/internal/query/plan"
)

// TestBatchQuery pins the batch path to the single-query path: every
// item's report must match what Query returns for the same node and
// parameters, per-item errors must not fail the batch, and the whole
// batch must count as one engine pass.
func TestBatchQuery(t *testing.T) {
	e := New(Options{})
	tree := testTree(t)
	r, err := e.Release(context.Background(), tree, "", TopDown, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}

	qs := []plan.Query{
		statsQuery(r.Key, "US", query.Params{Quantiles: []float64{0.5, 0.9}, TopCode: 4}),
		statsQuery(r.Key, "US/CA", query.Params{KthLargest: []int64{1, 2}}),
		statsQuery(r.Key, "US/NV", query.Params{}),                        // unknown node
		statsQuery(r.Key, "US/WA", query.Params{Quantiles: []float64{2}}), // bad quantile
		statsQuery(r.Key, "US/WA", query.Params{}),
	}
	items := e.EvalBatch(qs)
	if len(items) != len(qs) {
		t.Fatalf("got %d items for %d queries", len(items), len(qs))
	}
	if items[2].Err == nil {
		t.Fatal("unknown node did not error")
	}
	if items[3].Err == nil {
		t.Fatal("bad quantile did not error")
	}
	for i, q := range qs {
		want := e.Query(q)
		if (items[i].Err == nil) != (want.Err == nil) {
			t.Fatalf("item %d: err %v, Query err %v", i, items[i].Err, want.Err)
		}
		if want.Err != nil {
			if items[i].Err.Error() != want.Err.Error() {
				t.Fatalf("item %d: err %q, Query err %q", i, items[i].Err, want.Err)
			}
			continue
		}
		got, wantRep := items[i].Report, want.Report
		if got.Groups != wantRep.Groups || got.People != wantRep.People ||
			got.Mean != wantRep.Mean || got.Median != wantRep.Median || got.Gini != wantRep.Gini {
			t.Fatalf("item %d: report %+v, Query %+v", i, got, wantRep)
		}
		for j := range wantRep.Quantiles {
			if got.Quantiles[j] != wantRep.Quantiles[j] {
				t.Fatalf("item %d quantile %d: %+v, want %+v", i, j, got.Quantiles[j], wantRep.Quantiles[j])
			}
		}
		for j := range wantRep.KthLargest {
			if got.KthLargest[j] != wantRep.KthLargest[j] {
				t.Fatalf("item %d kth %d: %+v, want %+v", i, j, got.KthLargest[j], wantRep.KthLargest[j])
			}
		}
	}

	m := e.Metrics()
	if m.Batches != 1 {
		t.Fatalf("batches = %d, want 1", m.Batches)
	}

	for i := range qs {
		qs[i].Releases = []string{"no-such-key"}
	}
	for i, res := range e.EvalBatch(qs) {
		if !errors.Is(res.Err, ErrNotCached) {
			t.Fatalf("missing release item %d: err %v, want ErrNotCached", i, res.Err)
		}
	}
}

// TestEvalBatch pins the cross-release path: results match the
// single-release path node for node, per-query errors (including an
// unknown release key) never fail the batch, and the whole batch counts
// as one engine pass.
func TestEvalBatch(t *testing.T) {
	e := New(Options{})
	tree := testTree(t)
	r1, err := e.Release(context.Background(), tree, "", TopDown, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Release(context.Background(), tree, "", TopDown, testOpts(2))
	if err != nil {
		t.Fatal(err)
	}

	qs := []plan.Query{
		{Op: plan.OpStats, Releases: []string{r1.Key}, Node: "US"},
		{Op: plan.OpEMD, Releases: []string{r1.Key, r2.Key}, Node: "US/CA"},
		{Op: plan.OpSeries, Releases: []string{r1.Key, r2.Key}, Node: "US"},
		{Op: plan.OpStats, Releases: []string{"no-such-key"}, Node: "US"},
	}
	results := e.EvalBatch(qs)
	if len(results) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(results), len(qs))
	}
	for i := 0; i < 3; i++ {
		if results[i].Err != nil {
			t.Fatalf("query %d: %v", i, results[i].Err)
		}
	}
	single := e.Query(statsQuery(r1.Key, "US", query.Params{}))
	if single.Err != nil {
		t.Fatal(single.Err)
	}
	want := single.Report
	if results[0].Report.Groups != want.Groups || results[0].Report.People != want.People {
		t.Fatalf("stats = %+v, want %+v", results[0].Report, want)
	}
	if results[2].Series[0].Report.Groups != want.Groups {
		t.Fatalf("series[0] = %+v, want groups %d", results[2].Series[0], want.Groups)
	}
	if results[3].Err == nil || !strings.Contains(results[3].Err.Error(), "no-such-key") {
		t.Fatalf("unknown key err = %v", results[3].Err)
	}

	m := e.Metrics()
	if m.Batches != 1 {
		t.Fatalf("batches = %d, want 1", m.Batches)
	}
}
