package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"hcoc"
	"hcoc/internal/hierarchy"
	"hcoc/internal/query"
	"hcoc/internal/query/plan"
	"hcoc/internal/store"
)

// testTree builds a small two-level hierarchy, fast enough to release
// many times per test.
func testTree(t testing.TB) *hcoc.Tree {
	t.Helper()
	var groups []hcoc.Group
	for i := 0; i < 30; i++ {
		groups = append(groups, hcoc.Group{Path: []string{"CA"}, Size: int64(i % 5)})
		groups = append(groups, hcoc.Group{Path: []string{"WA"}, Size: int64(i % 3)})
	}
	tree, err := hcoc.BuildHierarchy("US", groups)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func testOpts(seed int64) hcoc.Options {
	return hcoc.Options{Epsilon: 1, K: 50, Seed: seed}
}

func TestReleaseCacheHit(t *testing.T) {
	e := New(Options{})
	tree := testTree(t)
	ctx := context.Background()

	first, err := e.Release(ctx, tree, "", TopDown, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Deduped {
		t.Fatalf("first release reported hit=%v deduped=%v", first.CacheHit, first.Deduped)
	}
	if err := hcoc.CheckSparse(tree, first.Release); err != nil {
		t.Fatal(err)
	}

	second, err := e.Release(ctx, tree, "", TopDown, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical request was not served from cache")
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ: %q vs %q", second.Key, first.Key)
	}
	for path, h := range first.Release {
		if !h.Equal(second.Release[path]) {
			t.Fatalf("cached release differs at %q", path)
		}
	}

	m := e.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.Releases != 1 {
		t.Fatalf("metrics = %+v, want 1 hit, 1 miss, 1 release", m)
	}
	if m.HitRate() != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", m.HitRate())
	}
}

func TestReleaseKeyDistinguishesRequests(t *testing.T) {
	e := New(Options{})
	tree := testTree(t)
	ctx := context.Background()

	base, err := e.Release(ctx, tree, "", TopDown, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]hcoc.Options{
		"seed":    testOpts(2),
		"epsilon": {Epsilon: 2, K: 50, Seed: 1},
		"k":       {Epsilon: 1, K: 60, Seed: 1},
		"merge":   {Epsilon: 1, K: 50, Seed: 1, Merge: hcoc.MergeAverage},
	} {
		r, err := e.Release(ctx, tree, "", TopDown, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.CacheHit || r.Key == base.Key {
			t.Fatalf("%s change did not change the release key", name)
		}
	}
	// A different algorithm over the same options is a different release.
	r, err := e.Release(ctx, tree, "", BottomUp, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit || r.Key == base.Key {
		t.Fatal("algorithm change did not change the release key")
	}
}

func TestReleaseKeyIgnoresWorkers(t *testing.T) {
	e := New(Options{})
	tree := testTree(t)
	ctx := context.Background()

	opts := testOpts(1)
	opts.Workers = 1
	if _, err := e.Release(ctx, tree, "", TopDown, opts); err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	r, err := e.Release(ctx, tree, "", TopDown, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Fatal("requests differing only in Workers should share a cache entry")
	}
}

// TestReleaseDedupsInflight pins an in-flight computation for the key
// and verifies that a duplicate request blocks on it rather than
// recomputing, then returns the shared result.
func TestReleaseDedupsInflight(t *testing.T) {
	e := New(Options{})
	tree := testTree(t)
	fp := hierarchy.FingerprintTree(tree)
	opts := testOpts(7)
	key := releaseKey(fp, TopDown, opts)

	rel, err := hcoc.ReleaseSparse(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := &call{done: make(chan struct{})}
	e.mu.Lock()
	e.inflight[key] = c
	e.mu.Unlock()

	const waiters = 4
	results := make(chan Result, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			r, err := e.Release(context.Background(), tree, fp, TopDown, opts)
			if err != nil {
				t.Error(err)
			}
			results <- r
		}()
	}
	// All waiters must register as deduped before the computation ends.
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics().Deduped < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters deduped", e.Metrics().Deduped, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-results:
		t.Fatal("waiter returned before the in-flight computation completed")
	default:
	}

	c.value = &cached{release: rel, epsilon: opts.Epsilon, duration: 42 * time.Millisecond}
	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
	close(c.done)

	for i := 0; i < waiters; i++ {
		r := <-results
		if !r.Deduped || r.CacheHit {
			t.Fatalf("waiter got deduped=%v hit=%v, want deduped only", r.Deduped, r.CacheHit)
		}
		if r.Duration != 42*time.Millisecond {
			t.Fatalf("waiter duration = %v, want the shared computation's", r.Duration)
		}
	}
	if m := e.Metrics(); m.Deduped != waiters || m.CacheMisses != 0 {
		t.Fatalf("metrics = %+v, want %d deduped and no misses", m, waiters)
	}
}

// TestReleaseDedupCancellation verifies a waiter abandons an in-flight
// computation when its context is canceled.
func TestReleaseDedupCancellation(t *testing.T) {
	e := New(Options{})
	tree := testTree(t)
	fp := hierarchy.FingerprintTree(tree)
	opts := testOpts(8)
	key := releaseKey(fp, TopDown, opts)

	c := &call{done: make(chan struct{})}
	e.mu.Lock()
	e.inflight[key] = c
	e.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Release(ctx, tree, fp, TopDown, opts)
		errc <- err
	}()
	for e.Metrics().Deduped < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestConcurrentIdenticalRequests hammers one key from many goroutines;
// every request must be accounted for and every response identical.
func TestConcurrentIdenticalRequests(t *testing.T) {
	e := New(Options{})
	tree := testTree(t)
	fp := hierarchy.FingerprintTree(tree)

	const n = 16
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := e.Release(context.Background(), tree, fp, TopDown, testOpts(3))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	m := e.Metrics()
	if got := m.CacheHits + m.CacheMisses + m.Deduped; got != n {
		t.Fatalf("accounted for %d of %d requests (%+v)", got, n, m)
	}
	if m.CacheMisses != m.Releases {
		t.Fatalf("%d misses but %d computations", m.CacheMisses, m.Releases)
	}
	for i := 1; i < n; i++ {
		for path, h := range results[0].Release {
			if !h.Equal(results[i].Release[path]) {
				t.Fatalf("request %d saw a different release at %q", i, path)
			}
		}
	}
}

func TestCacheEviction(t *testing.T) {
	e := New(Options{CacheSize: 2})
	tree := testTree(t)
	ctx := context.Background()

	r1, err := e.Release(ctx, tree, "", TopDown, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Release(ctx, tree, "", TopDown, testOpts(2)); err != nil {
		t.Fatal(err)
	}
	// Touch release 1 so release 2 is the LRU victim when 3 arrives.
	if _, _, err := e.Sparse(r1.Key); err != nil {
		t.Fatal(err)
	}
	r2key := releaseKey(hierarchy.FingerprintTree(tree), TopDown, testOpts(2))
	if _, err := e.Release(ctx, tree, "", TopDown, testOpts(3)); err != nil {
		t.Fatal(err)
	}

	m := e.Metrics()
	if m.Evictions != 1 || m.CacheEntries != 2 {
		t.Fatalf("metrics = %+v, want 1 eviction and 2 entries", m)
	}
	if _, _, err := e.Sparse(r1.Key); err != nil {
		t.Fatalf("recently-used release evicted: %v", err)
	}
	if _, _, err := e.Sparse(r2key); err != ErrNotCached {
		t.Fatalf("got %v, want ErrNotCached for the LRU victim", err)
	}
	// Re-releasing the victim is a miss, not a hit.
	r, err := e.Release(ctx, tree, "", TopDown, testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Fatal("evicted release served as a cache hit")
	}
}

func TestQuery(t *testing.T) {
	e := New(Options{})
	tree := testTree(t)
	r, err := e.Release(context.Background(), tree, "", TopDown, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}

	res := e.Query(statsQuery(r.Key, "US/CA", query.Params{
		Quantiles:  []float64{0.25, 0.5, 0.9},
		KthLargest: []int64{1, 3},
		TopCode:    3,
	}))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rep := res.Report
	// The report is computed from the sparse cache; verify it against
	// the dense query path over the densified release.
	h := r.Release["US/CA"].Hist()
	if rep.Groups != h.Groups() || rep.People != h.People() {
		t.Fatalf("report totals %d/%d differ from histogram %d/%d",
			rep.Groups, rep.People, h.Groups(), h.People())
	}
	med, err := hcoc.Median(h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Median != med {
		t.Fatalf("median = %d, want %d", rep.Median, med)
	}
	if g, err := hcoc.Gini(h); err != nil || rep.Gini != g {
		t.Fatalf("gini = %g, want %g (err %v)", rep.Gini, g, err)
	}
	if len(rep.Quantiles) != 3 || len(rep.KthLargest) != 2 {
		t.Fatalf("got %d quantiles, %d order stats", len(rep.Quantiles), len(rep.KthLargest))
	}
	want, err := hcoc.Quantile(h, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quantiles[2] != want {
		t.Fatalf("q0.9 = %d, want %d", rep.Quantiles[2], want)
	}
	largest, err := hcoc.KthLargest(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KthLargest[0] != largest {
		t.Fatalf("1st largest = %d, want %d", rep.KthLargest[0], largest)
	}
	if len(rep.TopCoded) != 4 { // sizes 0..2 plus the "3 or more" bucket
		t.Fatalf("top-coded table has %d cells, want 4", len(rep.TopCoded))
	}

	if res := e.Query(statsQuery(r.Key, "US/NV", query.Params{})); res.Err == nil {
		t.Fatal("query for a missing node succeeded")
	}
	if res := e.Query(statsQuery(r.Key, "US/CA", query.Params{Quantiles: []float64{1.5}})); res.Err == nil {
		t.Fatal("query with an out-of-range quantile succeeded")
	}
	if res := e.Query(statsQuery("no-such-key", "US/CA", query.Params{})); !errors.Is(res.Err, ErrNotCached) {
		t.Fatalf("got %v, want ErrNotCached", res.Err)
	}
}

// statsQuery is the planner query for one node of one release.
func statsQuery(key, node string, p query.Params) plan.Query {
	return plan.Query{Op: plan.OpStats, Releases: []string{key}, Node: node, Params: p}
}

func TestFingerprintTree(t *testing.T) {
	a := testTree(t)
	b := testTree(t)
	if hierarchy.FingerprintTree(a) != hierarchy.FingerprintTree(b) {
		t.Fatal("identical trees fingerprint differently")
	}
	other, err := hcoc.BuildHierarchy("US", []hcoc.Group{
		{Path: []string{"CA"}, Size: 2},
		{Path: []string{"WA"}, Size: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hierarchy.FingerprintTree(a) == hierarchy.FingerprintTree(other) {
		t.Fatal("different trees fingerprint identically")
	}
}

// TestComputeSlotBound verifies distinct release requests queue for a
// compute slot when ComputeSlots is saturated, and abandon the queue
// on context cancellation.
func TestComputeSlotBound(t *testing.T) {
	e := New(Options{ComputeSlots: 1})
	tree := testTree(t)
	// Saturate the only slot through the scheduler, as a foreign tenant.
	hold, err := e.Scheduler().Acquire(context.Background(), "slot-hog")
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan Result, 1)
	go func() {
		r, err := e.Release(context.Background(), tree, "", TopDown, testOpts(1))
		if err != nil {
			t.Error(err)
		}
		started <- r
	}()
	select {
	case <-started:
		t.Fatal("release ran despite a saturated compute semaphore")
	case <-time.After(50 * time.Millisecond):
	}

	// A second distinct request canceled while queueing returns promptly.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Release(ctx, tree, "", TopDown, testOpts(2)); err != context.Canceled {
		t.Fatalf("queued release got %v, want context.Canceled", err)
	}

	hold.Release() // free the slot; the queued release must now complete
	r := <-started
	if r.CacheHit || r.Deduped {
		t.Fatalf("queued release reported hit=%v deduped=%v", r.CacheHit, r.Deduped)
	}
	// The canceled request must not have poisoned its key.
	r2, err := e.Release(context.Background(), tree, "", TopDown, testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		t.Fatal("canceled request left a cache entry behind")
	}
}

func TestReleaseErrorNotCached(t *testing.T) {
	e := New(Options{})
	tree := testTree(t)
	bad := hcoc.Options{Epsilon: -1}
	if _, err := e.Release(context.Background(), tree, "", TopDown, bad); err == nil {
		t.Fatal("release with negative epsilon succeeded")
	}
	m := e.Metrics()
	if m.CacheEntries != 0 || m.Releases != 0 {
		t.Fatalf("failed release left state behind: %+v", m)
	}
	// The failed key must not poison future requests.
	if _, err := e.Release(context.Background(), tree, "", TopDown, bad); err == nil {
		t.Fatal("second bad release succeeded")
	}
}

// TestCacheByteBudget verifies run-cost accounting: with a byte budget
// far below three releases' worth, older entries are evicted by cost,
// the newest release is always retained, and the metrics expose the
// accounting.
// TestStateCostRunningTotal: StateCostBytes is the sum of the retained
// states' CostBytes after adds, a same-key replace, and evictions past
// stateCap.
func TestStateCostRunningTotal(t *testing.T) {
	e := New(Options{})
	var groups []hcoc.Group
	for i := 0; i < 40; i++ {
		groups = append(groups, hcoc.Group{Path: []string{fmt.Sprint("S", i%7), fmt.Sprint("C", i)}, Size: int64(i)})
	}
	big, err := hcoc.BuildHierarchy("US", groups)
	if err != nil {
		t.Fatal(err)
	}
	var states []*hcoc.ReleaseState
	for _, tree := range []*hcoc.Tree{testTree(t), big} {
		_, st, _, err := hcoc.ReleaseSparseFrom(tree, testOpts(1), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, st)
	}
	if states[0].CostBytes() == states[1].CostBytes() {
		t.Fatal("test states have equal costs; a replace would not show")
	}
	add := func(key string, st *hcoc.ReleaseState) {
		e.mu.Lock()
		e.states.add(key, st)
		e.mu.Unlock()
		var want int64
		e.mu.Lock()
		for _, entry := range e.states.m {
			want += entry.st.CostBytes()
		}
		e.mu.Unlock()
		if got := e.Metrics().StateCostBytes; got != want {
			t.Fatalf("after adding %s: StateCostBytes %d, want %d", key, got, want)
		}
	}
	add("a", states[0])
	add("b", states[1])
	add("a", states[1]) // same key, other state
	for i := 0; i < stateCap+5; i++ {
		add(fmt.Sprint("k", i), states[i%2])
	}
	if n := e.Metrics().StateEntries; n != stateCap {
		t.Fatalf("%d states retained, want %d", n, stateCap)
	}
}

func TestCacheByteBudget(t *testing.T) {
	tree := testTree(t)
	ctx := context.Background()

	// Measure one release's cost, then build an engine whose budget
	// holds roughly one and a half of them.
	rel, err := hcoc.ReleaseSparse(tree, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	budget := rel.CostBytes() * 3 / 2
	e := New(Options{CacheSize: 100, CacheBytes: budget})

	for seed := int64(1); seed <= 3; seed++ {
		if _, err := e.Release(ctx, tree, "", TopDown, testOpts(seed)); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.CacheBudgetBytes != budget {
		t.Fatalf("budget = %d, want %d", m.CacheBudgetBytes, budget)
	}
	if m.CacheCostBytes <= 0 || m.CacheCostBytes > budget {
		t.Fatalf("cache cost %d outside (0, %d]", m.CacheCostBytes, budget)
	}
	if m.CacheRuns <= 0 {
		t.Fatalf("cache runs = %d, want > 0", m.CacheRuns)
	}
	if m.Evictions == 0 {
		t.Fatal("no evictions under a sub-capacity byte budget")
	}
	if m.CacheEntries >= 3 {
		t.Fatalf("cache holds %d entries, budget should not fit all 3", m.CacheEntries)
	}
	// The most recent release must still be cached.
	r, err := e.Release(ctx, tree, "", TopDown, testOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Fatal("most recent release was evicted")
	}
}

// TestCancelingFirstClientDoesNotFailSecond is the regression test for
// the cross-client cancellation bug: when the request that originated a
// computation canceled while waiting for a compute slot, its
// context.Canceled used to be broadcast to every coalesced waiter, so
// clients with live contexts got "release failed: context canceled".
// The computation must survive as long as any waiter is live.
func TestCancelingFirstClientDoesNotFailSecond(t *testing.T) {
	e := New(Options{ComputeSlots: 1})
	tree := testTree(t)
	fp := hierarchy.FingerprintTree(tree)
	// Saturate the only slot so the request queues.
	hold, err := e.Scheduler().Acquire(context.Background(), "slot-hog")
	if err != nil {
		t.Fatal(err)
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	aErr := make(chan error, 1)
	go func() {
		_, err := e.Release(ctxA, tree, fp, TopDown, testOpts(1))
		aErr <- err
	}()
	// Wait for A to register the in-flight call, then coalesce B onto it.
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics().CacheMisses < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never registered")
		}
		time.Sleep(time.Millisecond)
	}
	bRes := make(chan Result, 1)
	bErr := make(chan error, 1)
	go func() {
		r, err := e.Release(context.Background(), tree, fp, TopDown, testOpts(1))
		bRes <- r
		bErr <- err
	}()
	for e.Metrics().Deduped < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}

	// Cancel the originating client while the computation is queued.
	cancelA()
	if err := <-aErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled client got %v, want context.Canceled", err)
	}
	select {
	case r := <-bRes:
		<-bErr
		t.Fatalf("live client returned %+v before a slot freed", r)
	case <-time.After(20 * time.Millisecond):
	}

	// Free the slot: the surviving waiter's computation must complete.
	hold.Release()
	r := <-bRes
	if err := <-bErr; err != nil {
		t.Fatalf("live client failed after the first canceled: %v", err)
	}
	if !r.Deduped || r.CacheHit {
		t.Fatalf("live client got deduped=%v hit=%v, want a deduped computation", r.Deduped, r.CacheHit)
	}
	if err := hcoc.CheckSparse(tree, r.Release); err != nil {
		t.Fatal(err)
	}
	// The computed release is cached for later requests.
	again, err := e.Release(context.Background(), tree, fp, TopDown, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("release was not cached after the canceled-client run")
	}
}

// TestStoreWriteThrough: a computed release lands in the durable store,
// and a fresh engine over the same store serves it without
// recomputation — the restart-survival property the store exists for.
func TestStoreWriteThrough(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tree := testTree(t)
	ctx := context.Background()

	e1 := New(Options{Store: st})
	first, err := e1.Release(ctx, tree, "", TopDown, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.StoreHit {
		t.Fatalf("first release: hit=%v storeHit=%v, want a computation", first.CacheHit, first.StoreHit)
	}
	if m := e1.Metrics(); m.StorePuts != 1 || m.StoreArtifacts != 1 || m.StoreErrors != 0 {
		t.Fatalf("after write-through: %+v", m)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new store handle and a new engine, same directory.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2 := New(Options{Store: st2})
	revived, err := e2.Release(ctx, tree, "", TopDown, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if !revived.StoreHit || revived.CacheHit {
		t.Fatalf("post-restart release: storeHit=%v hit=%v, want a store hit", revived.StoreHit, revived.CacheHit)
	}
	if revived.Key != first.Key {
		t.Fatalf("keys differ across restart: %q vs %q", revived.Key, first.Key)
	}
	for path, h := range first.Release {
		if !h.Equal(revived.Release[path]) {
			t.Fatalf("revived release differs at %q", path)
		}
	}
	m := e2.Metrics()
	if m.Releases != 0 {
		t.Fatalf("restart recomputed: %d releases", m.Releases)
	}
	if m.StoreHits != 1 {
		t.Fatalf("store hits = %d, want 1", m.StoreHits)
	}
	// Third request: now in the LRU.
	if r, err := e2.Release(ctx, tree, "", TopDown, testOpts(1)); err != nil || !r.CacheHit {
		t.Fatalf("store hit was not admitted to the LRU (err=%v, hit=%v)", err, r.CacheHit)
	}
}

// TestStoreServesQueriesAfterRestart: Sparse and Query fall through the
// LRU to the store.
func TestStoreServesQueriesAfterRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tree := testTree(t)
	e1 := New(Options{Store: st})
	first, err := e1.Release(context.Background(), tree, "", TopDown, testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2 := New(Options{Store: st2})
	rel, epsilon, err := e2.Sparse(first.Key)
	if err != nil {
		t.Fatalf("Sparse after restart: %v", err)
	}
	if epsilon != 1 {
		t.Fatalf("epsilon = %g, want 1", epsilon)
	}
	for path, h := range first.Release {
		if !h.Equal(rel[path]) {
			t.Fatalf("store-served release differs at %q", path)
		}
	}
	res := e2.Query(statsQuery(first.Key, "US/CA", query.Params{Quantiles: []float64{0.5}}))
	if res.Err != nil {
		t.Fatalf("Query after restart: %v", res.Err)
	}
	if res.Report.Groups == 0 {
		t.Fatal("query served an empty node")
	}
	// An unknown key is still ErrNotCached, store or not.
	if _, _, err := e2.Sparse("no-such-key"); err != ErrNotCached {
		t.Fatalf("got %v, want ErrNotCached", err)
	}
}

// TestBudgetEnforcement: with a per-hierarchy bound, computations spend,
// hits are free, the bound rejects with a typed error carrying the
// remaining budget, and a warm start replays historical spend from the
// manifest.
func TestBudgetEnforcement(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tree := testTree(t)
	fp := hierarchy.FingerprintTree(tree)
	ctx := context.Background()

	e := New(Options{Store: st, MaxEpsilonPerHierarchy: 2.5})
	// Two distinct eps-1 computations: 2.0 spent.
	if _, err := e.Release(ctx, tree, fp, TopDown, testOpts(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Release(ctx, tree, fp, TopDown, testOpts(2)); err != nil {
		t.Fatal(err)
	}
	// A cache hit is free.
	if r, err := e.Release(ctx, tree, fp, TopDown, testOpts(1)); err != nil || !r.CacheHit {
		t.Fatalf("cache hit: %v (hit=%v)", err, r.CacheHit)
	}
	if m := e.Metrics(); m.EpsilonSpent != 2 {
		t.Fatalf("spent = %g, want 2", m.EpsilonSpent)
	}
	// A third computation would need 1.0 with only 0.5 remaining: 429
	// material, with the remaining budget in the typed error.
	_, err = e.Release(ctx, tree, fp, TopDown, testOpts(3))
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetError", err)
	}
	if be.Hierarchy != fp || be.Requested != 1 || be.Limit != 2.5 {
		t.Fatalf("budget error = %+v", be)
	}
	if be.Remaining < 0.49 || be.Remaining > 0.51 {
		t.Fatalf("remaining = %g, want 0.5", be.Remaining)
	}
	// The refused request must not poison the key: a smaller release
	// within budget still works.
	small := hcoc.Options{Epsilon: 0.5, K: 50, Seed: 3}
	if _, err := e.Release(ctx, tree, fp, TopDown, small); err != nil {
		t.Fatalf("within-budget release refused: %v", err)
	}
	if _, rem, _, ok := e.BudgetStatus(fp); !ok || rem > 1e-6 {
		t.Fatalf("remaining = %g enforced=%v, want ~0 and true", rem, ok)
	}
	st.Close()

	// Warm start: the manifest replays 2.5 spent; everything is refused
	// except store hits, which stay free.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2 := New(Options{Store: st2, MaxEpsilonPerHierarchy: 2.5})
	if m := e2.Metrics(); m.EpsilonSpent != 2.5 {
		t.Fatalf("warm-start spent = %g, want 2.5", m.EpsilonSpent)
	}
	if r, err := e2.Release(ctx, tree, fp, TopDown, testOpts(1)); err != nil || !r.StoreHit {
		t.Fatalf("store hit after warm start: %v (storeHit=%v)", err, r.StoreHit)
	}
	if _, err := e2.Release(ctx, tree, fp, TopDown, testOpts(9)); !errors.As(err, &be) {
		t.Fatalf("post-restart overdraft got %v, want *BudgetError", err)
	}

	// A lowered bound pins an overdrawn hierarchy to zero remaining.
	e3 := New(Options{Store: st2, MaxEpsilonPerHierarchy: 1})
	if _, rem, _, ok := e3.BudgetStatus(fp); !ok || rem > 1e-6 {
		t.Fatalf("lowered-bound remaining = %g enforced=%v, want ~0 and true", rem, ok)
	}
}

// TestBudgetRefusalSkipsQueue: a release its budget cannot cover is
// refused at once, with every compute slot held, and takes no slot
// grant.
func TestBudgetRefusalSkipsQueue(t *testing.T) {
	e := New(Options{ComputeSlots: 2, MaxEpsilonPerHierarchy: 1})
	tree := testTree(t)
	fp := hierarchy.FingerprintTree(tree)
	if _, err := e.Release(context.Background(), tree, fp, TopDown, testOpts(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.Scheduler().Slots(); i++ {
		hold, err := e.Scheduler().Acquire(context.Background(), "slot-hog")
		if err != nil {
			t.Fatal(err)
		}
		defer hold.Release()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := e.Release(ctx, tree, fp, TopDown, testOpts(2))
	var be *BudgetError
	if !errors.As(err, &be) || be.Remaining != 0 {
		t.Fatalf("got %v, want a *BudgetError with nothing remaining, before any slot frees", err)
	}
	for _, st := range e.Scheduler().Tenants() {
		if st.Tenant == fp && st.Granted != 1 {
			t.Fatalf("tenant granted %d slots, want 1 (the refusal takes none)", st.Granted)
		}
	}
}

// TestBudgetRefundOnFailure: a computation that fails before drawing
// noise refunds its charge, in memory and in the durable ledger.
func TestBudgetRefundOnFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tree := testTree(t)
	fp := hierarchy.FingerprintTree(tree)
	e := New(Options{Store: st, MaxEpsilonPerHierarchy: 1})
	// An out-of-range method value passes the length check but fails
	// estimation — after the charge, before any noise is drawn.
	bad := hcoc.Options{Epsilon: 1, K: 50, Methods: []hcoc.Method{hcoc.Method(99)}}
	if _, err := e.Release(context.Background(), tree, fp, TopDown, bad); err == nil {
		t.Fatal("invalid release succeeded")
	}
	if m := e.Metrics(); m.EpsilonSpent != 0 {
		t.Fatalf("failed release left %g spent", m.EpsilonSpent)
	}
	// The full budget is still available.
	if _, err := e.Release(context.Background(), tree, fp, TopDown, testOpts(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// The charge/refund round trip is durable: a warm start replays
	// only the successful computation's epsilon.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if spent := st2.EpsilonByHierarchy()[fp]; spent != 1 {
		t.Fatalf("durable spend = %g, want 1 (charge+refund+charge)", spent)
	}
}

// TestRefusedEpsilonNeverCharged: an epsilon the release refuses,
// +Inf among them, leaves the ledger as it was instead of charging and
// refunding it (Inf - Inf would leave NaN spent).
func TestRefusedEpsilonNeverCharged(t *testing.T) {
	tree := testTree(t)
	fp := hierarchy.FingerprintTree(tree)
	e := New(Options{})
	if _, err := e.Release(context.Background(), tree, fp, TopDown, testOpts(1)); err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{math.Inf(1), math.NaN(), 1e-17} {
		if _, err := e.Release(context.Background(), tree, fp, TopDown, hcoc.Options{Epsilon: eps, K: 50}); err == nil {
			t.Fatalf("epsilon %g released", eps)
		}
	}
	if spent, _, _, _ := e.BudgetStatus(fp); spent != 1 {
		t.Fatalf("spent = %v after refused releases, want 1", spent)
	}
}

// TestContinualBound: the continual bound sums the ledger over the
// distinct fingerprints of a lineage and refuses with a *BudgetError
// naming that bound. ReleaseFrom reads the history it is handed, the
// lineage and the incremental candidates, only for a computation: the
// candidates once, the lineage at the check before a compute slot and
// again at the charge.
func TestContinualBound(t *testing.T) {
	e := New(Options{MaxEpsilonContinual: 2.5})
	ctx := context.Background()
	a := testTree(t)
	b, err := hcoc.BuildHierarchy("US", []hcoc.Group{{Path: []string{"CA"}, Size: 2}, {Path: []string{"WA"}, Size: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fpA, fpB := hierarchy.FingerprintTree(a), hierarchy.FingerprintTree(b)
	reads, candidates := 0, 0
	lineage := func() []string { reads++; return []string{fpA, fpB, fpA} }
	prev := func() []PrevVersion { candidates++; return nil }

	if _, err := e.ReleaseFrom(ctx, a, fpA, TopDown, testOpts(1), prev, lineage); err != nil {
		t.Fatal(err)
	}
	if r, err := e.ReleaseFrom(ctx, a, fpA, TopDown, testOpts(1), prev, lineage); err != nil || !r.CacheHit {
		t.Fatalf("repeat: %v (hit=%v)", err, r.CacheHit)
	}
	if _, err := e.ReleaseFrom(ctx, b, fpB, TopDown, testOpts(1), prev, lineage); err != nil {
		t.Fatal(err)
	}
	if reads != 4 || candidates != 2 {
		t.Fatalf("lineage read %d times and candidates %d, want 4 and 2 (2 computations)", reads, candidates)
	}
	// fpA repeats in the lineage but was spent on once: 2 of 2.5.
	_, err = e.ReleaseFrom(ctx, b, fpB, TopDown, testOpts(2), nil, lineage)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetError", err)
	}
	if !be.Continual || be.Hierarchy != fpB || be.Requested != 1 || be.Limit != 2.5 || be.Remaining != 0.5 {
		t.Fatalf("budget error = %+v", be)
	}
	if spent, rem, limit, ok := e.ContinualStatus([]string{fpA, fpB, fpA}); spent != 2 || rem != 0.5 || limit != 2.5 || !ok {
		t.Fatalf("continual status = %g, %g, %g, %v", spent, rem, limit, ok)
	}
	// The per-hierarchy bound is unset: each tree reports its own spend.
	if spent, _, _, ok := e.BudgetStatus(fpA); spent != 1 || ok {
		t.Fatalf("per-hierarchy status of a = %g, enforced %v", spent, ok)
	}
	small := hcoc.Options{Epsilon: 0.5, K: 50, Seed: 3}
	if _, err := e.ReleaseFrom(ctx, b, fpB, TopDown, small, nil, lineage); err != nil {
		t.Fatalf("release within the remainder refused: %v", err)
	}
	// Without a lineage a tree is its own: b alone has spent 1.5.
	if _, err := e.Release(ctx, b, fpB, TopDown, testOpts(4)); err != nil {
		t.Fatalf("lineage-free release refused: %v", err)
	}
	if m := e.Metrics(); m.EpsilonLimitContinual != 2.5 || m.EpsilonSpent != 3.5 {
		t.Fatalf("metrics: limit %g spent %g, want 2.5 and 3.5", m.EpsilonLimitContinual, m.EpsilonSpent)
	}
}

// TestReleaseRejectsWrongMethodsLength: a methods list whose length
// does not match the tree depth is rejected before keying, so it can
// never share a cache entry (or a coalesced error) with the valid
// broadcast spelling it would canonicalize to.
func TestReleaseRejectsWrongMethodsLength(t *testing.T) {
	e := New(Options{})
	tree := testTree(t) // depth 2
	ctx := context.Background()

	valid := testOpts(1)
	valid.Methods = []hcoc.Method{hcoc.MethodHg}
	if _, err := e.Release(ctx, tree, "", TopDown, valid); err != nil {
		t.Fatal(err)
	}
	// Uniform but wrong length: invalid, and must NOT be served from
	// the broadcast spelling's cache entry.
	bad := testOpts(1)
	bad.Methods = []hcoc.Method{hcoc.MethodHg, hcoc.MethodHg, hcoc.MethodHg}
	if _, err := e.Release(ctx, tree, "", TopDown, bad); err == nil {
		t.Fatal("3 methods for a 2-level tree succeeded")
	}
	if m := e.Metrics(); m.CacheHits != 0 {
		t.Fatalf("invalid request hit the cache: %+v", m)
	}
}

// TestCacheByteBudgetKeepsOversizedEntry: a single release larger than
// the whole budget still serves queries (the newest entry is never
// evicted).
func TestCacheByteBudgetKeepsOversizedEntry(t *testing.T) {
	tree := testTree(t)
	e := New(Options{CacheSize: 10, CacheBytes: 1}) // 1 byte: everything oversized
	r, err := e.Release(context.Background(), tree, "", TopDown, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Sparse(r.Key); err != nil {
		t.Fatalf("oversized release not retained: %v", err)
	}
	if m := e.Metrics(); m.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", m.CacheEntries)
	}
}

// TestInstanceID: every engine mints a distinct, stable identity.
func TestInstanceID(t *testing.T) {
	a, b := New(Options{}), New(Options{})
	if len(a.ID()) != 8 || len(b.ID()) != 8 {
		t.Fatalf("IDs %q / %q, want 8 hex chars", a.ID(), b.ID())
	}
	if a.ID() == b.ID() {
		t.Fatalf("two engines share the id %q", a.ID())
	}
	if a.ID() != a.ID() {
		t.Fatal("id is not stable")
	}
}

// TestEpsilonSpentLocalExcludesReplay: a warm start replays historical
// spend into EpsilonSpent but not EpsilonSpentLocal, which only counts
// draws by this process.
func TestEpsilonSpentLocalExcludesReplay(t *testing.T) {
	tree := testTree(t)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := New(Options{Store: st})
	if _, err := first.Release(context.Background(), tree, "", TopDown, testOpts(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e := New(Options{Store: st2})
	m := e.Metrics()
	if m.EpsilonSpent != 1 {
		t.Fatalf("EpsilonSpent = %g, want 1 (replayed)", m.EpsilonSpent)
	}
	if m.EpsilonSpentLocal != 0 {
		t.Fatalf("EpsilonSpentLocal = %g, want 0 on a warm start", m.EpsilonSpentLocal)
	}
	// A fresh draw by this process moves both.
	if _, err := e.Release(context.Background(), tree, "", TopDown, testOpts(2)); err != nil {
		t.Fatal(err)
	}
	m = e.Metrics()
	if m.EpsilonSpent != 2 || m.EpsilonSpentLocal != 1 {
		t.Fatalf("after a local draw: spent=%g local=%g, want 2 and 1", m.EpsilonSpent, m.EpsilonSpentLocal)
	}
}

// TestDedupBypassesAdmission is the regression test for coalesced
// waiters vs. admission accounting: requests that piggyback on an
// identical in-flight computation must count against neither the
// tenant's queue depth nor its fair share. With a queue depth of 1 and
// the only compute slot held hostage, a flood of identical requests
// must coalesce onto one queued runner — not reject — and the tenant's
// share must advance by exactly one grant.
func TestDedupBypassesAdmission(t *testing.T) {
	e := New(Options{ComputeSlots: 1, ComputeQueueDepth: 1})
	tree := testTree(t)
	fp := hierarchy.FingerprintTree(tree)

	hold, err := e.Scheduler().Acquire(context.Background(), "slot-hog")
	if err != nil {
		t.Fatal(err)
	}

	const n = 6
	results := make(chan Result, n)
	for i := 0; i < n; i++ {
		go func() {
			r, err := e.Release(context.Background(), tree, fp, TopDown, testOpts(11))
			if err != nil {
				t.Error(err)
				return
			}
			results <- r
		}()
	}
	// All n requests must be accounted for — one runner queued in the
	// scheduler, the rest coalesced — before the slot frees.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := e.Metrics()
		if m.CacheMisses == 1 && m.Deduped == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never settled: %d misses, %d deduped", m.CacheMisses, m.Deduped)
		}
		time.Sleep(time.Millisecond)
	}
	var ts []TenantStat
	for {
		ts = e.TenantStats()
		var queued int
		for _, s := range ts {
			if s.Tenant == fp {
				queued = s.Queued
			}
		}
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runner never queued: %+v", ts)
		}
		time.Sleep(time.Millisecond)
	}
	// Despite queue depth 1 and n identical requests, nothing was
	// rejected: only the one runner occupies the queue.
	for _, s := range ts {
		if s.Tenant == fp && (s.Rejected != 0 || s.Queued != 1) {
			t.Fatalf("tenant %s: rejected=%d queued=%d, want 0 and 1", fp, s.Rejected, s.Queued)
		}
	}

	hold.Release()
	for i := 0; i < n; i++ {
		select {
		case <-results:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d coalesced requests completed", i, n)
		}
	}
	// The tenant's fair share advanced by exactly one grant for all n
	// requests, and the ledger shows the split.
	var got TenantStat
	for _, s := range e.TenantStats() {
		if s.Tenant == fp {
			got = s
		}
	}
	if got.Granted != 1 {
		t.Fatalf("tenant granted = %d for %d identical requests, want 1", got.Granted, n)
	}
	if got.Requests != n || got.Deduped != n-1 || got.Computed != 1 {
		t.Fatalf("tenant ledger = %+v, want %d requests, %d deduped, 1 computed", got, n, n-1)
	}
	if got.Rejected != 0 {
		t.Fatalf("tenant rejected = %d, want 0", got.Rejected)
	}
}

// TestReleaseOverload pins the admission-refusal path end to end: with
// the only slot held and distinct (non-coalescing) requests exceeding
// the queue bound, the overflow gets a typed *OverloadError carrying a
// usable Retry-After, and the engine's per-tenant ledger records the
// refusal.
func TestReleaseOverload(t *testing.T) {
	e := New(Options{ComputeSlots: 1, ComputeQueueDepth: 1})
	tree := testTree(t)
	fp := hierarchy.FingerprintTree(tree)

	hold, err := e.Scheduler().Acquire(context.Background(), "slot-hog")
	if err != nil {
		t.Fatal(err)
	}

	// Distinct seed => distinct key => a real queue occupant.
	done := make(chan error, 1)
	go func() {
		_, err := e.Release(context.Background(), tree, fp, TopDown, testOpts(21))
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var queued int
		for _, s := range e.TenantStats() {
			if s.Tenant == fp {
				queued = s.Queued
			}
		}
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Second distinct request overflows the depth-1 queue.
	_, err = e.Release(context.Background(), tree, fp, TopDown, testOpts(22))
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("overflow got %v, want *OverloadError", err)
	}
	if ov.Tenant != fp || ov.QueueDepth != 1 {
		t.Fatalf("OverloadError = %+v", ov)
	}
	if ov.RetryAfter < time.Second || ov.RetryAfter > 30*time.Second {
		t.Fatalf("RetryAfter = %v, want within [1s, 30s]", ov.RetryAfter)
	}

	hold.Release()
	if err := <-done; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
	var got TenantStat
	for _, s := range e.TenantStats() {
		if s.Tenant == fp {
			got = s
		}
	}
	if got.Rejected == 0 {
		t.Fatal("refusal not recorded in the tenant ledger")
	}
}
