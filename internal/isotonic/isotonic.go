package isotonic

import (
	"math"
	"math/bits"
)

// FitL2 returns the non-decreasing sequence minimizing sum (z_i - y_i)^2
// using pool-adjacent-violators in O(n). Within each pooled block the
// fitted value is the block mean.
func FitL2(ys []float64) []float64 {
	return FitL2Weighted(ys, nil)
}

// FitL2Weighted is FitL2 with per-element positive weights; nil weights
// mean all ones. It panics on non-positive weights or mismatched lengths.
func FitL2Weighted(ys, ws []float64) []float64 {
	if ws != nil && len(ws) != len(ys) {
		panic("isotonic: weights length mismatch")
	}
	type block struct {
		sum, weight float64
		count       int
	}
	blocks := make([]block, 0, len(ys))
	for i, y := range ys {
		w := 1.0
		if ws != nil {
			w = ws[i]
			if w <= 0 {
				panic("isotonic: non-positive weight")
			}
		}
		blocks = append(blocks, block{sum: y * w, weight: w, count: 1})
		// Merge while the previous block mean exceeds the current one.
		for len(blocks) > 1 {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/a.weight <= b.sum/b.weight {
				break
			}
			blocks = blocks[:len(blocks)-1]
			blocks[len(blocks)-1] = block{
				sum:    a.sum + b.sum,
				weight: a.weight + b.weight,
				count:  a.count + b.count,
			}
		}
	}
	out := make([]float64, 0, len(ys))
	for _, b := range blocks {
		v := b.sum / b.weight
		for i := 0; i < b.count; i++ {
			out = append(out, v)
		}
	}
	return out
}

// FitL1 returns a non-decreasing sequence minimizing sum |z_i - y_i|
// using the slope-trick algorithm: the multiset of left-slope
// breakpoints is maintained, and its recorded maxima, scanned backwards
// under a running minimum, form an optimal fit. When the optimum is not
// unique this returns the pointwise-smallest optimal solution whose
// values are all drawn from the input values; in particular, integer
// inputs yield an integer fit (the property the paper relies on when it
// notes the L1 version "mostly returns integers"). It is FitL1InPlace
// on a copy of ys.
func FitL1(ys []float64) []float64 {
	return FitL1InPlace(append([]float64(nil), ys...))
}

// FitL1InPlace is FitL1 writing the fit into ys, which it overwrites
// and returns. Each step's largest breakpoint is stored at the index
// just read, and the backward minimum scan then runs over ys.
//
// The input picks how the breakpoints are kept. When every value is an
// integer of magnitude below 2^52 other than -0, and the largest minus
// the smallest is below 2*len(ys), as in the Hc estimator's noisy
// cumulative cells, they are counted per value in O(n + range) time
// and about 4.1 bytes per value of range. Any other input goes to a
// max-heap, in O(n log n) time and 8 bytes per value. Both hold the
// same multiset after every step, so both return the same bits. Where
// the input is known to be integers, FitL1Ints makes the same choice
// without the pass over ys that this one takes.
func FitL1InPlace(ys []float64) []float64 {
	if len(ys) == 0 {
		return ys
	}
	if lo, span, ok := countingSpan(ys); ok {
		return FitL1Ints(ys, lo, lo+int64(span)-1, new(Scratch))
	}
	new(Scratch).heapTops(ys)
	return suffixMin(ys)
}

// FitL1Ints is FitL1InPlace for input already known to be integers:
// every value of ys must be float64(v) for an int64 v in [lo, hi], as
// a sum of integer counts and integer noise is (a conversion never
// yields -0). It skips FitL1InPlace's pass over ys and picks the
// counting path from lo, hi and len(ys) alone, when lo and hi are of
// magnitude below 2^52 and hi-lo is below 2*len(ys), and the heap
// otherwise, so it returns FitL1InPlace's bits. The breakpoints are
// kept in s.
func FitL1Ints(ys []float64, lo, hi int64, s *Scratch) []float64 {
	if len(ys) == 0 {
		return ys
	}
	if countable(lo, hi, len(ys)) {
		s.countingTops(ys, lo, int(hi-lo)+1)
	} else {
		s.heapTops(ys)
	}
	return suffixMin(ys)
}

// Scratch is the breakpoint storage of L1 fits, kept between fits so
// that a caller running many of them allocates it once: the counting
// path's counts and bitmaps and the heap path's array. A fit clears
// what it uses before it starts, so a Scratch needs no reset between
// fits, and the zero value is ready to use. It keeps the largest
// storage it has needed, and serves one fit at a time.
type Scratch struct {
	set  countSet
	heap maxHeap4
}

// suffixMin replaces every ys[i] with the minimum of ys[i:], in place.
func suffixMin(ys []float64) []float64 {
	run := ys[len(ys)-1]
	for i := len(ys) - 1; i >= 0; i-- {
		if ys[i] < run {
			run = ys[i]
		}
		ys[i] = run
	}
	return ys
}

// heapTops runs the slope trick over ys with the breakpoints in a
// 4-ary max-heap, storing each step's top at the index just read.
func (s *Scratch) heapTops(ys []float64) {
	h := s.heap[:0]
	if cap(h) < len(ys) {
		h = make(maxHeap4, 0, len(ys))
	}
	for i, y := range ys {
		// The slope trick pushes y and, when the top then exceeds y,
		// pops the top and pushes y again. Replacing the top with y
		// before the push leaves the same multiset, and so the same
		// top, with two sifts in place of three.
		if len(h) > 0 && h[0] > y {
			h.replaceTop(y)
		}
		h.push(y)
		ys[i] = h[0]
	}
	s.heap = h
}

// countLimit bounds the magnitude of the values the counting path
// takes.
const countLimit = 1 << 52

// countable reports whether the breakpoints of n integers in [lo, hi]
// are counted per value: both bounds of magnitude below countLimit and
// hi-lo below 2n, so the counts take about the heap's memory, and n
// small enough that no int32 count can overflow.
func countable(lo, hi int64, n int) bool {
	return lo > -countLimit && hi < countLimit && hi-lo < 2*int64(n) && n <= math.MaxInt32
}

// countingSpan reports whether the breakpoints of ys can be counted
// per value: every value an integer of magnitude below 2^52 and not -0
// (which would come back as +0), and countable from the smallest to the
// largest. It returns the smallest value and the number of integers
// from it to the largest.
func countingSpan(ys []float64) (lo int64, span int, ok bool) {
	mn, mx := ys[0], ys[0]
	for _, y := range ys {
		// NaN fails the range test.
		if !(y > -countLimit && y < countLimit) || float64(int64(y)) != y || math.Float64bits(y) == 1<<63 {
			return 0, 0, false
		}
		if y < mn {
			mn = y
		} else if y > mx {
			mx = y
		}
	}
	if !countable(int64(mn), int64(mx), len(ys)) {
		return 0, 0, false
	}
	return int64(mn), int(mx-mn) + 1, true
}

// countingTops is heapTops for integer ys in [lo, lo+span), with the
// breakpoints kept in a countSet and the top as an offset from lo.
func (s *Scratch) countingTops(ys []float64, lo int64, span int) {
	// The loop runs on a local copy of the set, written back after it:
	// that measured a few percent faster than working through s.
	set := s.set
	set.reset(span)
	top := -1 // no breakpoint yet
	for i, y := range ys {
		v := int(int64(y) - lo)
		if v < top {
			// heapTops' replaceTop(y) and push(y): one copy of the top
			// out, two copies of y in.
			set.add(v, 2)
			if set.remove(top) {
				top = set.below(top)
			}
		} else {
			set.add(v, 1)
			top = v
		}
		ys[i] = float64(lo + int64(top))
	}
	s.set = set
}

// countSet is a multiset of integers in [0, span): a count per value,
// one bit per value held and one bit per non-empty 64-value word of
// those, so that below reaches the next value held in a few word reads
// however far away it is.
type countSet struct {
	counts []int32
	held   []uint64 // bit v%64 of held[v/64] is set iff counts[v] > 0
	words  []uint64 // bit w%64 of words[w/64] is set iff held[w] != 0
}

// reset empties s and sizes it for values in [0, span), reusing its
// storage where it is large enough.
func (s *countSet) reset(span int) {
	n := (span + 63) / 64
	s.counts = zeroed(s.counts, span)
	s.held = zeroed(s.held, n)
	s.words = zeroed(s.words, (n+63)/64)
}

// zeroed returns b resized to n elements, all zero, in b's array when
// it has room for them.
func zeroed[T int32 | uint64](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// add puts c copies of v in the set.
func (s *countSet) add(v int, c int32) {
	s.counts[v] += c
	s.held[v>>6] |= 1 << (uint(v) & 63)
	s.words[v>>12] |= 1 << (uint(v>>6) & 63)
}

// remove takes one copy of v, which the set holds, out of it and
// reports whether none is left.
func (s *countSet) remove(v int) bool {
	if s.counts[v]--; s.counts[v] > 0 {
		return false
	}
	w := v >> 6
	if s.held[w] &^= 1 << (uint(v) & 63); s.held[w] == 0 {
		s.words[w>>6] &^= 1 << (uint(w) & 63)
	}
	return true
}

// below returns the largest value held below v; the set must hold one.
func (s *countSet) below(v int) int {
	w := v >> 6
	if m := s.held[w] & (1<<(uint(v)&63) - 1); m != 0 {
		return w<<6 | (bits.Len64(m) - 1)
	}
	j := w >> 6
	m := s.words[j] & (1<<(uint(w)&63) - 1)
	for m == 0 {
		j--
		m = s.words[j]
	}
	w = j<<6 | (bits.Len64(m) - 1)
	return w<<6 | (bits.Len64(s.held[w]) - 1)
}

// CostL2 returns sum (z_i - y_i)^2.
func CostL2(ys, zs []float64) float64 {
	var c float64
	for i := range ys {
		d := zs[i] - ys[i]
		c += d * d
	}
	return c
}

// CostL1 returns sum |z_i - y_i|.
func CostL1(ys, zs []float64) float64 {
	var c float64
	for i := range ys {
		d := zs[i] - ys[i]
		if d < 0 {
			d = -d
		}
		c += d
	}
	return c
}

// ClampBox clamps each fitted value into [lo, hi] in place and returns
// the slice. Clamping a monotone sequence preserves monotonicity, and
// for separable convex isotonic problems the clamped unconstrained
// solution is optimal for the box-constrained problem.
func ClampBox(zs []float64, lo, hi float64) []float64 {
	for i, z := range zs {
		if z < lo {
			zs[i] = lo
		} else if z > hi {
			zs[i] = hi
		}
	}
	return zs
}

// Blocks returns the maximal runs of equal values in a fitted solution as
// (start, end) half-open index pairs. Section 5.1 estimates the variance
// of a fitted cell as noiseVar/len(block containing it).
func Blocks(zs []float64) [][2]int {
	var out [][2]int
	for i := 0; i < len(zs); {
		j := i + 1
		for j < len(zs) && zs[j] == zs[i] {
			j++
		}
		out = append(out, [2]int{i, j})
		i = j
	}
	return out
}

// IsMonotone reports whether zs is non-decreasing.
func IsMonotone(zs []float64) bool {
	for i := 1; i < len(zs); i++ {
		if zs[i] < zs[i-1] {
			return false
		}
	}
	return true
}

// maxHeap4 is a float64 max-heap in 4-ary layout, the children of i
// being 4i+1 to 4i+4: half the depth of a binary heap, so a push sifts
// through half the levels. Both sifts move a hole instead of swapping.
type maxHeap4 []float64

func (h *maxHeap4) push(x float64) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if s[p] >= x {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
}

// replaceTop overwrites the maximum with x and restores the heap.
func (h maxHeap4) replaceTop(x float64) {
	n := len(h)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if h[j] > h[m] {
				m = j
			}
		}
		if h[m] <= x {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
