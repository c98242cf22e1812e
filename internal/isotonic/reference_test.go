package isotonic

// fitL1Reference is the textbook slope trick over a binary max-heap:
// push y and, when the top then exceeds y, pop it and push y again;
// record the top; scan the recorded tops backwards under a running
// minimum. FitL1 and FitL1InPlace keep the same multiset of
// breakpoints with a cheaper update and a 4-ary layout, so they must
// equal it element for element.
func fitL1Reference(ys []float64) []float64 {
	n := len(ys)
	if n == 0 {
		return nil
	}
	h := make(binaryMaxHeap, 0, n)
	tops := make([]float64, n)
	for i, y := range ys {
		h.push(y)
		if h[0] > y {
			h.pop()
			h.push(y)
		}
		tops[i] = h[0]
	}
	out := make([]float64, n)
	run := tops[n-1]
	for i := n - 1; i >= 0; i-- {
		if tops[i] < run {
			run = tops[i]
		}
		out[i] = run
	}
	return out
}

type binaryMaxHeap []float64

func (h *binaryMaxHeap) push(x float64) {
	*h = append(*h, x)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] >= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *binaryMaxHeap) pop() float64 {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(*h) && (*h)[l] > (*h)[largest] {
			largest = l
		}
		if r < len(*h) && (*h)[r] > (*h)[largest] {
			largest = r
		}
		if largest == i {
			break
		}
		(*h)[i], (*h)[largest] = (*h)[largest], (*h)[i]
		i = largest
	}
	return top
}
