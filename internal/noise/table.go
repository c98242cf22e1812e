package noise

import (
	"math"
	"sync"
)

// A geometric draw at a fixed alpha maps its source word x, through
// u = 1 - float64(x)/2^63, to floor(log(u)/log(alpha)). u falls as x
// rises, so the 2^51 words sharing x's top 12 bits (a cell) map to one
// interval [uLo, uHi] of u, and where that interval holds no boundary
// alpha^k every word of the cell draws the same k. A geoTable stores
// that k per cell, so most draws cost one load instead of two logs and
// a division.
const (
	tableBits  = 12
	tableCells = 1 << tableBits
	cellShift  = 63 - tableBits
	// fallback marks a cell the formula answers.
	fallback = -1
	// margin is the relative distance a cell keeps from every boundary:
	// it answers k only if alpha^(k+1)*(1+margin) < uLo and
	// uHi < alpha^k*(1-margin). The formula's own error (math.Log under
	// 1 ulp, the division half of one, log(alpha) under 1 ulp) moves its
	// boundaries by under 1e-14 relative for every u a cell holds, and
	// walking alpha^k by multiplication adds under k ulps (k < 2^15);
	// 1e-9 is orders wider than both.
	margin = 1e-9
)

// geoTable holds, per cell of source words, the geometric draw every
// word of the cell maps to, or fallback. It is read-only once built.
type geoTable struct {
	k [tableCells]int16
}

// buildTable returns the table for alpha in (0, 1), or nil when at
// least half its cells would fall back, where the table would cost
// more than it saves. It walks the boundaries alpha^k down the cells
// by multiplication instead of taking a log per cell. The last cell
// always falls back: it holds the words rand.Float64 redraws. So does
// any cell whose value would not fit an int16.
func buildTable(alpha float64) *geoTable {
	// A cell can answer only where the gap between boundaries,
	// alpha^k*(1-alpha), is wider than the cell, 1/tableCells of u.
	// Below 1-alpha = 2/tableCells that leaves only cells with u above
	// 1/2: half of them at most.
	if 1-alpha < 2.0/tableCells {
		return nil
	}
	t := new(geoTable)
	t.k[tableCells-1] = fallback
	fallbacks := 1
	k, hi, lo := 0, 1.0, alpha // hi = alpha^k, lo = alpha^(k+1)
	for j := 0; j < tableCells-1; j++ {
		// The cell's first and last words, mapped as a draw maps them.
		uHi := 1 - float64(int64(j)<<cellShift)/(1<<63)
		uLo := 1 - float64(int64(j+1)<<cellShift-1)/(1<<63)
		for lo >= uHi && k <= math.MaxInt16 {
			k++
			hi, lo = lo, lo*alpha
		}
		if k <= math.MaxInt16 && uHi < hi*(1-margin) && lo*(1+margin) < uLo {
			t.k[j] = int16(k)
			continue
		}
		t.k[j] = fallback
		if fallbacks++; fallbacks >= tableCells/2 {
			return nil
		}
	}
	return t
}

// tableCacheSize bounds the shared tables. One release draws at a few
// scales (one per estimator and per-level epsilon), so a few entries
// cover several concurrent releases at distinct epsilons; each holds
// 8 KiB.
const tableCacheSize = 8

// tables is the shared cache of lookup tables, keyed by the exact
// scale, with round-robin replacement. A table is never written once
// built, and whether a draw finds one changes only its speed, never
// its value, so one cache serves every Gen. Entry scales of 0 are
// empty: setScale never looks one up.
var tables struct {
	mu      sync.Mutex
	next    int
	entries [tableCacheSize]struct {
		scale float64
		t     *geoTable // nil: the formula answers every draw at scale
	}
}

// tableFor returns the shared table for scale, with alpha its
// exp(-1/scale) in (0, 1), building it on a miss.
func tableFor(scale, alpha float64) *geoTable {
	tables.mu.Lock()
	defer tables.mu.Unlock()
	for _, e := range tables.entries {
		if e.scale == scale {
			return e.t
		}
	}
	t := buildTable(alpha)
	e := &tables.entries[tables.next]
	e.scale, e.t = scale, t
	tables.next = (tables.next + 1) % tableCacheSize
	return t
}
