package histogram

import (
	"math/rand"
	"testing"
)

// randHist draws a sparse-ish random histogram: a few occupied cells
// spread over a size range much larger than the cell count.
func randHist(r *rand.Rand) Hist {
	h := make(Hist, 1+r.Intn(500))
	for n := r.Intn(12); n > 0; n-- {
		h[r.Intn(len(h))] = int64(r.Intn(50))
	}
	return h
}

func TestSparseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		h := randHist(r)
		s := h.Sparse()
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !h.Equal(s.Hist()) {
			t.Fatalf("trial %d: round trip changed histogram:\n%v\n%v", trial, h, s.Hist())
		}
		if !s.Equal(s.Hist().Sparse()) {
			t.Fatalf("trial %d: sparse round trip not canonical", trial)
		}
		if s.Groups() != h.Groups() || s.People() != h.People() {
			t.Fatalf("trial %d: totals differ", trial)
		}
		if s.DistinctSizes() != h.DistinctSizes() {
			t.Fatalf("trial %d: distinct sizes %d != %d", trial, s.DistinctSizes(), h.DistinctSizes())
		}
		if int(s.MaxSize()) != h.MaxSize() {
			t.Fatalf("trial %d: max size %d != %d", trial, s.MaxSize(), h.MaxSize())
		}
	}
}

func TestSparseFromSizesMatchesFromSizes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		sizes := make([]int64, r.Intn(100))
		for i := range sizes {
			sizes[i] = int64(r.Intn(200))
		}
		if !SparseFromSizes(sizes).Hist().Equal(FromSizes(sizes)) {
			t.Fatalf("trial %d: SparseFromSizes differs from FromSizes", trial)
		}
	}
}

func TestSparseGroupSizes(t *testing.T) {
	s := Sparse{{Size: 1, Count: 2}, {Size: 4, Count: 1}}
	got := s.GroupSizes()
	want := GroupSizes{1, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("GroupSizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GroupSizes = %v, want %v", got, want)
		}
	}
}

func TestSparseAddDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a, b := randHist(r), randHist(r)
		if !a.Sparse().Add(b.Sparse()).Hist().Equal(a.Add(b)) {
			t.Fatalf("trial %d: sparse Add differs from dense", trial)
		}
	}
}

func TestEMDSparseDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		a, b := randHist(r), randHist(r)
		// EMD over dense inputs depends on trailing zeros when the group
		// totals differ; the canonical (trimmed) form is what EMDSparse
		// implements.
		want := EMD(a.Trim(), b.Trim())
		got := EMDSparse(a.Sparse(), b.Sparse())
		if got != want {
			t.Fatalf("trial %d: EMDSparse = %d, EMD = %d\na = %v\nb = %v", trial, got, want, a, b)
		}
		// On equal group totals EMD is independent of trailing zeros and
		// the two must agree unconditionally.
		if a.Groups() == b.Groups() && EMD(a, b) != got {
			t.Fatalf("trial %d: equal-total EMD disagrees", trial)
		}
	}
	// Edge cases the random draw can miss.
	cases := [][2]Hist{
		{Hist{}, Hist{}},
		{Hist{1}, Hist{}},
		{Hist{0, 1}, Hist{0, 0, 0, 1}},
		{Hist{5}, Hist{0, 0, 5}},
	}
	for _, c := range cases {
		if got, want := EMDSparse(c[0].Sparse(), c[1].Sparse()), EMD(c[0], c[1]); got != want {
			t.Fatalf("EMDSparse(%v, %v) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

func TestSparseValidate(t *testing.T) {
	bad := []Sparse{
		{{Size: -1, Count: 1}},
		{{Size: 2, Count: 0}},
		{{Size: 2, Count: -3}},
		{{Size: 2, Count: 1}, {Size: 2, Count: 1}},
		{{Size: 3, Count: 1}, {Size: 1, Count: 1}},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d: Validate accepted %v", i, s)
		}
	}
	if err := (Sparse{{Size: 0, Count: 2}, {Size: 7, Count: 1}}).Validate(); err != nil {
		t.Errorf("Validate rejected a valid sparse histogram: %v", err)
	}
}
