package plan

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hcoc"
	"hcoc/internal/histogram"
	"hcoc/internal/query"
)

// randSparse draws a random run-length histogram: group sizes sampled
// with duplicates so runs carry counts > 1, occasionally empty.
func randSparse(rng *rand.Rand) histogram.Sparse {
	n := rng.Intn(40)
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = 1 + rng.Int63n(25)
	}
	return histogram.SparseFromSizes(sizes)
}

// randRelease draws a release over the given nodes.
func randRelease(rng *rand.Rand, nodes []string) hcoc.SparseHistograms {
	rel := make(hcoc.SparseHistograms, len(nodes))
	for _, n := range nodes {
		rel[n] = randSparse(rng)
	}
	return rel
}

// mapSource serves releases from a map and counts fetches per key.
type mapSource struct {
	rels    map[string]hcoc.SparseHistograms
	fetches map[string]int
}

func (m *mapSource) Fetch(key string) (hcoc.SparseHistograms, error) {
	if m.fetches == nil {
		m.fetches = make(map[string]int)
	}
	m.fetches[key]++
	rel, ok := m.rels[key]
	if !ok {
		return nil, fmt.Errorf("no such release")
	}
	return rel, nil
}

func (m *mapSource) total() int {
	n := 0
	for _, c := range m.fetches {
		n += c
	}
	return n
}

func TestParseOp(t *testing.T) {
	for in, want := range map[string]Op{
		"": OpStats, "stats": OpStats, "emd": OpEMD, "delta": OpDelta,
		"series": OpSeries, "compare": OpCompare,
	} {
		got, err := ParseOp(in)
		if err != nil || got != want {
			t.Errorf("ParseOp(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseOp("drift"); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("ParseOp(drift) err = %v; want unknown op", err)
	}
}

// TestDifferentialEMDAndDelta proves the cross-release results equal
// the dense route: the earthmover's distance and the totals of each
// release's trimmed dense histogram.
func TestDifferentialEMDAndDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nodes := []string{"US", "US/CA", "US/NY", "US/TX"}
	for trial := 0; trial < 200; trial++ {
		a := randRelease(rng, nodes)
		b := randRelease(rng, nodes)
		src := &mapSource{rels: map[string]hcoc.SparseHistograms{"v1": a, "v2": b}}
		var qs []Query
		for _, n := range nodes {
			qs = append(qs,
				Query{Op: OpEMD, Releases: []string{"v1", "v2"}, Node: n},
				Query{Op: OpDelta, Releases: []string{"v1", "v2"}, Node: n},
			)
		}
		results := New(qs).Execute(src)
		for i, n := range nodes {
			emdRes, deltaRes := results[2*i], results[2*i+1]
			if emdRes.Err != nil || deltaRes.Err != nil {
				t.Fatalf("trial %d node %s: errs %v, %v", trial, n, emdRes.Err, deltaRes.Err)
			}
			da, db := a[n].Hist(), b[n].Hist()
			wantEMD := histogram.EMD(da, db)
			wantGroups := db.Groups() - da.Groups()
			wantPeople := db.People() - da.People()
			if *emdRes.EMD != wantEMD {
				t.Fatalf("trial %d node %s: EMD = %d, want %d", trial, n, *emdRes.EMD, wantEMD)
			}
			for _, res := range []Result{emdRes, deltaRes} {
				if *res.GroupsDelta != wantGroups || *res.PeopleDelta != wantPeople {
					t.Fatalf("trial %d node %s: deltas = (%d, %d), want (%d, %d)",
						trial, n, *res.GroupsDelta, *res.PeopleDelta, wantGroups, wantPeople)
				}
			}
		}
	}
}

// TestDifferentialSeriesAndCompare proves series and compare results
// equal evaluating query.ReportSparse on each release directly.
func TestDifferentialSeriesAndCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodes := []string{"US", "US/CA"}
	params := query.Params{Quantiles: []float64{0.25, 0.9}}
	for trial := 0; trial < 100; trial++ {
		rels := map[string]hcoc.SparseHistograms{}
		keys := []string{"v1", "v2", "v3"}
		for _, k := range keys {
			rel := randRelease(rng, nodes)
			// Keep nodes non-empty so quantile params are valid.
			for _, n := range nodes {
				if rel[n].Groups() == 0 {
					rel[n] = histogram.SparseFromSizes([]int64{1})
				}
			}
			rels[k] = rel
		}
		src := &mapSource{rels: rels}
		qs := []Query{
			{Op: OpSeries, Releases: keys, Node: "US", Params: params},
			{Op: OpCompare, Releases: []string{"v1", "v3"}, Node: "US/CA", Params: params},
		}
		results := New(qs).Execute(src)
		if results[0].Err != nil || results[1].Err != nil {
			t.Fatalf("trial %d: errs %v, %v", trial, results[0].Err, results[1].Err)
		}
		for i, k := range keys {
			want, err := query.ReportSparse(rels[k]["US"], params)
			if err != nil {
				t.Fatal(err)
			}
			got := results[0].Series[i]
			if got.Release != k || !reflect.DeepEqual(got.Report, want) {
				t.Fatalf("trial %d series[%d] = %+v, want release %s report %+v", trial, i, got, k, want)
			}
		}
		wantL, _ := query.ReportSparse(rels["v1"]["US/CA"], params)
		wantR, _ := query.ReportSparse(rels["v3"]["US/CA"], params)
		if !reflect.DeepEqual(*results[1].Left, wantL) || !reflect.DeepEqual(*results[1].Right, wantR) {
			t.Fatalf("trial %d compare mismatch", trial)
		}
	}
}

// TestScanSharing pins the planner contract: a 16-query batch over 2
// distinct releases performs exactly 2 source fetches.
func TestScanSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nodes := []string{"US", "US/CA", "US/NY", "US/TX"}
	src := &mapSource{rels: map[string]hcoc.SparseHistograms{
		"v1": randRelease(rng, nodes),
		"v2": randRelease(rng, nodes),
	}}
	var qs []Query
	for i := 0; i < 16; i++ {
		n := nodes[i%len(nodes)]
		switch i % 4 {
		case 0:
			qs = append(qs, Query{Op: OpStats, Releases: []string{"v1"}, Node: n})
		case 1:
			qs = append(qs, Query{Op: OpEMD, Releases: []string{"v1", "v2"}, Node: n})
		case 2:
			qs = append(qs, Query{Op: OpDelta, Releases: []string{"v2", "v1"}, Node: n})
		default:
			qs = append(qs, Query{Op: OpSeries, Releases: []string{"v1", "v2"}, Node: n})
		}
	}
	p := New(qs)
	if got := p.Keys(); !reflect.DeepEqual(got, []string{"v1", "v2"}) {
		t.Fatalf("Keys() = %v, want [v1 v2]", got)
	}
	results := p.Execute(src)
	if len(qs) != 16 {
		t.Fatalf("batch has %d queries, want 16", len(qs))
	}
	if src.total() != 2 || src.fetches["v1"] != 1 || src.fetches["v2"] != 1 {
		t.Fatalf("fetches = %v (total %d), want exactly 1 per release", src.fetches, src.total())
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
}

// TestPerQueryErrors checks that malformed queries, unknown releases,
// and mismatched hierarchies fail individually without failing the
// batch — and that invalid queries trigger no fetch.
func TestPerQueryErrors(t *testing.T) {
	relA := hcoc.SparseHistograms{"US": histogram.SparseFromSizes([]int64{1, 2, 2})}
	relB := hcoc.SparseHistograms{"EU": histogram.SparseFromSizes([]int64{3})}
	src := &mapSource{rels: map[string]hcoc.SparseHistograms{"a": relA, "b": relB}}
	qs := []Query{
		{Op: OpStats, Releases: []string{"a"}, Node: "US"},                                    // ok
		{Op: OpEMD, Releases: []string{"a"}, Node: "US"},                                      // wrong arity
		{Op: OpEMD, Releases: []string{"a", "missing"}, Node: "US"},                           // unknown release
		{Op: OpEMD, Releases: []string{"a", "b"}, Node: "US"},                                 // mismatched hierarchies
		{Op: OpSeries, Releases: []string{"a", "b"}, Node: ""},                                // no node
		{Op: Op("bogus"), Releases: []string{"a", "b"}, Node: "US"},                           // unknown op
		{Op: OpStats, Releases: []string{"a"}, Node: "US", Params: query.Params{TopCode: -1}}, // bad params
	}
	results := New(qs).Execute(src)
	if results[0].Err != nil || results[0].Report == nil || results[0].Report.Groups != 3 {
		t.Fatalf("query 0 = %+v, want Groups 3", results[0])
	}
	for i, want := range map[int]string{
		1: "exactly 2 releases",
		2: `release "missing"`,
		3: `release "b" has no node "US"`,
		4: "names no node",
		5: "unknown op",
		6: "cap must be",
	} {
		if results[i].Err == nil || !strings.Contains(results[i].Err.Error(), want) {
			t.Errorf("query %d err = %v, want containing %q", i, results[i].Err, want)
		}
	}
	// Only "a", "b", and "missing" are keys of valid queries.
	if src.fetches["a"] != 1 || src.fetches["b"] != 1 || src.fetches["missing"] != 1 || src.total() != 3 {
		t.Fatalf("fetches = %v, want one each for a, b, missing", src.fetches)
	}
}

func TestSeriesValidation(t *testing.T) {
	long := make([]string, MaxSeriesReleases+1)
	for i := range long {
		long[i] = fmt.Sprintf("v%d", i)
	}
	qs := []Query{
		{Op: OpSeries, Releases: []string{"v1"}, Node: "US"},
		{Op: OpSeries, Releases: long, Node: "US"},
	}
	src := &mapSource{rels: map[string]hcoc.SparseHistograms{}}
	results := New(qs).Execute(src)
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "at least 2") {
		t.Errorf("short series err = %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "exceeds") {
		t.Errorf("long series err = %v", results[1].Err)
	}
	if src.total() != 0 {
		t.Fatalf("invalid queries caused %d fetches, want 0", src.total())
	}
}

func TestFetchErrorPropagates(t *testing.T) {
	boom := errors.New("store offline")
	src := SourceFunc(func(key string) (hcoc.SparseHistograms, error) { return nil, boom })
	results := New([]Query{{Op: OpStats, Releases: []string{"x"}, Node: "US"}}).Execute(src)
	if !errors.Is(results[0].Err, boom) {
		t.Fatalf("err = %v, want wrapping %v", results[0].Err, boom)
	}
}

// TestEMDAndDeltaEmpty covers a node with no groups on either side of
// a pair.
func TestEMDAndDeltaEmpty(t *testing.T) {
	full := hcoc.SparseHistograms{"US": histogram.SparseFromSizes([]int64{2, 2, 5})}
	empty := hcoc.SparseHistograms{"US": nil}
	src := &mapSource{rels: map[string]hcoc.SparseHistograms{"full": full, "empty": empty}}
	for _, c := range []struct {
		a, b                string
		emd, groups, people int64
	}{
		// The cumulative counts of {2, 2, 5} over sizes 0..5 are
		// 0, 0, 2, 2, 2, 3: the distance to no groups is their sum.
		{"full", "empty", 9, -3, -9},
		{"empty", "full", 9, 3, 9},
		{"empty", "empty", 0, 0, 0},
	} {
		res := New([]Query{{Op: OpEMD, Releases: []string{c.a, c.b}, Node: "US"}}).Execute(src)[0]
		if res.Err != nil {
			t.Fatalf("%s/%s: %v", c.a, c.b, res.Err)
		}
		if *res.EMD != c.emd || *res.GroupsDelta != c.groups || *res.PeopleDelta != c.people {
			t.Fatalf("%s/%s: (emd, groups, people) = (%d, %d, %d), want (%d, %d, %d)",
				c.a, c.b, *res.EMD, *res.GroupsDelta, *res.PeopleDelta, c.emd, c.groups, c.people)
		}
	}
}
