package histogram

import (
	"fmt"
	"sort"
)

// Run is one run of a sparse count-of-counts histogram: Count groups,
// all of size Size.
type Run struct {
	Size  int64
	Count int64
}

// Sparse is the run-length representation of a count-of-counts
// histogram: runs with strictly increasing sizes and positive counts.
// It describes the same object as Hist — Sparse{{2, 5}} means five
// groups of size two — in space proportional to the number of distinct
// sizes rather than the largest size, which at the paper's public bound
// K = 100000 is the difference between a few dozen runs and a
// 100001-cell array per hierarchy node.
type Sparse []Run

// Sparse converts a dense histogram into the run-length representation.
func (h Hist) Sparse() Sparse {
	out := make(Sparse, 0, h.DistinctSizes())
	for size, count := range h {
		if count != 0 {
			out = append(out, Run{Size: int64(size), Count: count})
		}
	}
	return out
}

// Hist converts back to the dense representation, with length
// MaxSize()+1. The conversion is lossless: s.Hist().Sparse() equals s
// for any valid s.
func (s Sparse) Hist() Hist {
	if len(s) == 0 {
		return Hist{}
	}
	out := make(Hist, s[len(s)-1].Size+1)
	for _, r := range s {
		out[r.Size] = r.Count
	}
	return out
}

// GroupSizes converts to the unattributed representation (one entry per
// group, non-decreasing).
func (s Sparse) GroupSizes() GroupSizes {
	out := make(GroupSizes, 0, s.Groups())
	for _, r := range s {
		for j := int64(0); j < r.Count; j++ {
			out = append(out, r.Size)
		}
	}
	return out
}

// SparseFromSizes builds a sparse histogram from a list of group sizes
// (not necessarily sorted). It panics on negative sizes, matching
// FromSizes.
func SparseFromSizes(sizes []int64) Sparse {
	if len(sizes) == 0 {
		return Sparse{}
	}
	sorted := make([]int64, len(sizes))
	copy(sorted, sizes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if sorted[0] < 0 {
		panic(fmt.Sprintf("histogram: negative group size %d", sorted[0]))
	}
	var out Sparse
	for _, v := range sorted {
		if n := len(out); n > 0 && out[n-1].Size == v {
			out[n-1].Count++
		} else {
			out = append(out, Run{Size: v, Count: 1})
		}
	}
	return out
}

// Groups returns the total number of groups.
func (s Sparse) Groups() int64 {
	var n int64
	for _, r := range s {
		n += r.Count
	}
	return n
}

// People returns the total number of entities, sum of Size*Count.
func (s Sparse) People() int64 {
	var n int64
	for _, r := range s {
		n += r.Size * r.Count
	}
	return n
}

// DistinctSizes returns the number of distinct group sizes present.
func (s Sparse) DistinctSizes() int { return len(s) }

// MaxSize returns the largest group size present, or -1 if there are no
// groups.
func (s Sparse) MaxSize() int64 {
	if len(s) == 0 {
		return -1
	}
	return s[len(s)-1].Size
}

// Validate reports an error unless sizes are nonnegative and strictly
// increasing and every count is positive.
func (s Sparse) Validate() error {
	prev := int64(-1)
	for i, r := range s {
		if r.Size < 0 {
			return fmt.Errorf("histogram: negative size %d in run %d", r.Size, i)
		}
		if r.Size <= prev {
			return fmt.Errorf("histogram: run sizes not strictly increasing at run %d (%d after %d)", i, r.Size, prev)
		}
		if r.Count <= 0 {
			return fmt.Errorf("histogram: non-positive count %d for size %d", r.Count, r.Size)
		}
		prev = r.Size
	}
	return nil
}

// Clone returns a copy of s.
func (s Sparse) Clone() Sparse {
	out := make(Sparse, len(s))
	copy(out, s)
	return out
}

// Equal reports whether s and other describe the same histogram.
func (s Sparse) Equal(other Sparse) bool {
	if len(s) != len(other) {
		return false
	}
	for i, r := range s {
		if other[i] != r {
			return false
		}
	}
	return true
}

// Add returns the run-wise sum of s and other (a two-pointer merge).
// Neither input is modified.
func (s Sparse) Add(other Sparse) Sparse {
	out := make(Sparse, 0, len(s)+len(other))
	i, j := 0, 0
	for i < len(s) || j < len(other) {
		switch {
		case j >= len(other) || (i < len(s) && s[i].Size < other[j].Size):
			out = append(out, s[i])
			i++
		case i >= len(s) || other[j].Size < s[i].Size:
			out = append(out, other[j])
			j++
		default:
			out = append(out, Run{Size: s[i].Size, Count: s[i].Count + other[j].Count})
			i++
			j++
		}
	}
	return out
}

// EMDSparse computes the earthmover's distance between two sparse
// histograms without densifying either: between consecutive distinct
// sizes the cumulative difference is constant, so each gap contributes
// |difference| * width. It equals EMD on the trimmed dense equivalents;
// when the two histograms hold the same number of groups (the only case
// in which the earthmover's distance is meaningful, and the invariant
// the release pipeline guarantees) it equals EMD on any dense
// equivalents, trailing zeros or not.
func EMDSparse(a, b Sparse) int64 {
	var (
		dist       int64
		cumA, cumB int64
		i, j       int
		pos        int64 // first size not yet accounted for
	)
	for i < len(a) || j < len(b) {
		// next is the smallest size at which either cumulative changes.
		var next int64
		switch {
		case j >= len(b) || (i < len(a) && a[i].Size < b[j].Size):
			next = a[i].Size
		case i >= len(a) || b[j].Size < a[i].Size:
			next = b[j].Size
		default:
			next = a[i].Size
		}
		// The difference held constant over [pos, next).
		dist += abs64(cumA-cumB) * (next - pos)
		for i < len(a) && a[i].Size == next {
			cumA += a[i].Count
			i++
		}
		for j < len(b) && b[j].Size == next {
			cumB += b[j].Count
			j++
		}
		pos = next + 1
		dist += abs64(cumA - cumB) // the cell at next itself
	}
	// Dense EMD stops at the last cell of the longer histogram, which is
	// the last size with a run in either input — exactly where the scan
	// above stopped.
	return dist
}
