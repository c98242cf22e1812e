package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"hcoc"
	"hcoc/internal/hierarchy"
)

// sparseOfRuns builds a release with exactly n runs in one node, for
// precise cost accounting in tests.
func sparseOfRuns(n int) hcoc.SparseHistograms {
	s := make(hcoc.SparseHistogram, n)
	for i := range s {
		s[i] = hcoc.SparseRun{Size: int64(i + 1), Count: 1}
	}
	return hcoc.SparseHistograms{"root": s}
}

func cachedOfRuns(n int) *cached {
	rel := sparseOfRuns(n)
	return &cached{release: rel, cost: rel.CostBytes()}
}

// TestLRURefreshAccounting: re-adding an existing key with a different
// cost must keep the cost and run counters exact — the refresh path
// replaces the entry's contribution, it does not double it.
func TestLRURefreshAccounting(t *testing.T) {
	c := newLRU(4, 0)

	small := cachedOfRuns(2)
	big := cachedOfRuns(10)
	if evicted := c.add("k", small); evicted != 0 {
		t.Fatalf("evicted %d from an empty cache", evicted)
	}
	if c.cost != small.cost || c.runCount != 2 || c.len() != 1 {
		t.Fatalf("after first add: cost=%d runs=%d len=%d", c.cost, c.runCount, c.len())
	}

	// Refresh with a bigger value: counters track the replacement.
	if evicted := c.add("k", big); evicted != 0 {
		t.Fatalf("refresh evicted %d", evicted)
	}
	if c.cost != big.cost || c.runCount != 10 || c.len() != 1 {
		t.Fatalf("after growth refresh: cost=%d (want %d) runs=%d (want 10) len=%d",
			c.cost, big.cost, c.runCount, c.len())
	}
	got, ok := c.get("k")
	if !ok || got != big {
		t.Fatal("refresh did not replace the value")
	}

	// Refresh back down: no residue from the larger value.
	c.add("k", small)
	if c.cost != small.cost || c.runCount != 2 {
		t.Fatalf("after shrink refresh: cost=%d (want %d) runs=%d (want 2)",
			c.cost, small.cost, c.runCount)
	}

	// After evicting everything, the counters return to exactly zero.
	c2 := newLRU(1, 0)
	c2.add("a", cachedOfRuns(3))
	c2.add("a", cachedOfRuns(7)) // refresh
	c2.add("b", cachedOfRuns(5)) // evicts a
	if c2.cost != cachedOfRuns(5).cost || c2.runCount != 5 || c2.len() != 1 {
		t.Fatalf("after refresh+evict: cost=%d runs=%d len=%d", c2.cost, c2.runCount, c2.len())
	}
	c2.capacity = 0 // force full drain via the byte/count bounds
	c2.budget = 1
	c2.add("c", cachedOfRuns(1)) // newest is kept, b evicted
	if c2.len() != 1 || c2.runCount != 1 {
		t.Fatalf("drain left runs=%d len=%d", c2.runCount, c2.len())
	}
}

// TestLRURefreshMovesToFront: a refreshed key becomes the most recently
// used entry, so it is the last eviction victim.
func TestLRURefreshMovesToFront(t *testing.T) {
	c := newLRU(2, 0)
	c.add("a", cachedOfRuns(1))
	c.add("b", cachedOfRuns(1))
	c.add("a", cachedOfRuns(4)) // refresh: a is now MRU
	c.add("c", cachedOfRuns(1)) // evicts b, the LRU entry
	if _, ok := c.get("a"); !ok {
		t.Fatal("refreshed entry was evicted")
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("stale entry survived over the refreshed one")
	}
}

// TestMetricsUnderConcurrentReleases hammers the engine with a mix of
// distinct and identical requests plus metric scrapes from many
// goroutines; run with -race this is the regression net for counter
// and cache accounting. Every request must be accounted exactly once
// and the final cost accounting must be internally consistent.
func TestMetricsUnderConcurrentReleases(t *testing.T) {
	e := New(Options{CacheSize: 4})
	tree := testTree(t)
	fp := hierarchy.FingerprintTree(tree)

	const goroutines = 24
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// 6 distinct seeds across 24 goroutines: plenty of dedup
			// and cache traffic, plus evictions (cache holds 4).
			opts := testOpts(int64(i % 6))
			if _, err := e.Release(context.Background(), tree, fp, TopDown, opts); err != nil {
				t.Error(err)
			}
			m := e.Metrics()
			if m.CacheEntries > m.CacheCapacity {
				t.Errorf("cache over capacity: %+v", m)
			}
		}(i)
	}
	// Concurrent scrapes while releases run.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = e.Metrics()
				time.Sleep(time.Microsecond)
			}
		}()
	}
	wg.Wait()

	m := e.Metrics()
	if got := m.CacheHits + m.CacheMisses + m.Deduped; got != goroutines {
		t.Fatalf("accounted for %d of %d requests: %+v", got, goroutines, m)
	}
	if m.CacheMisses != m.Releases {
		t.Fatalf("%d misses but %d computations", m.CacheMisses, m.Releases)
	}
	if m.InFlight != 0 {
		t.Fatalf("in-flight = %d after all requests returned", m.InFlight)
	}
	if m.CacheEntries != 4 || m.Evictions != m.Releases-4 {
		t.Fatalf("entries=%d evictions=%d releases=%d", m.CacheEntries, m.Evictions, m.Releases)
	}
	// The cost/run counters must equal a fresh walk over what is held.
	var wantCost, wantRuns int64
	for el := e.cache.order.Front(); el != nil; el = el.Next() {
		v := el.Value.(*lruEntry).value
		wantCost += v.cost
		wantRuns += v.release.TotalRuns()
	}
	if m.CacheCostBytes != wantCost || m.CacheRuns != wantRuns {
		t.Fatalf("accounting drifted: cost=%d (walk %d) runs=%d (walk %d)",
			m.CacheCostBytes, wantCost, m.CacheRuns, wantRuns)
	}
	if m.HitRate() < 0 || m.HitRate() > 1 {
		t.Fatalf("hit rate = %g", m.HitRate())
	}
	_ = fmt.Sprintf("%+v", m) // Metrics must be printable (no locks held)
}
