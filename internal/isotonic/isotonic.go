package isotonic

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
// in O(n log n) using the slope-trick algorithm: a max-heap of
// left-slope breakpoints is maintained; the recorded heap tops, scanned
// backwards under a running minimum, form an optimal fit. When the
// optimum is not unique this returns the pointwise-smallest optimal
// solution whose values are all drawn from the input values; in
// particular, integer inputs yield an integer fit (the property the
// paper relies on when it notes the L1 version "mostly returns
// integers"). It is FitL1InPlace on a copy of ys.
func FitL1(ys []float64) []float64 {
	return FitL1InPlace(append([]float64(nil), ys...))
}

// FitL1InPlace is FitL1 writing the fit into ys, which it overwrites
// and returns. Each step's heap top is stored at the index just read,
// and the backward minimum scan then runs over ys, so the heap is the
// only allocation.
func FitL1InPlace(ys []float64) []float64 {
	n := len(ys)
	if n == 0 {
		return ys
	}
	h := make(maxHeap4, 0, n)
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
	run := ys[n-1]
	for i := n - 1; i >= 0; i-- {
		if ys[i] < run {
			run = ys[i]
		}
		ys[i] = run
	}
	return ys
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

// BlockSizes returns, for every index i, the size of the maximal
// equal-value run containing i in the fitted solution.
func BlockSizes(zs []float64) []int {
	out := make([]int, len(zs))
	for _, b := range Blocks(zs) {
		n := b[1] - b[0]
		for i := b[0]; i < b[1]; i++ {
			out[i] = n
		}
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
