package engine

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hcoc"
	"hcoc/internal/privacy"
	"hcoc/internal/sched"
	"hcoc/internal/store"
)

// Options configures an Engine.
type Options struct {
	// CacheSize bounds the number of completed releases kept in memory;
	// 0 means DefaultCacheSize.
	CacheSize int
	// CacheBytes, when positive, additionally bounds the cache by the
	// estimated resident cost of the releases it holds (16 bytes per
	// run plus per-node overhead — SparseHistograms.CostBytes). Because
	// releases are cached in run-length form, their cost is what they
	// actually occupy, not nodes x K; a byte budget therefore holds
	// orders of magnitude more census-shaped releases than a count
	// bound sized for the dense worst case. The most recent release is
	// always retained even if it alone exceeds the budget.
	CacheBytes int64
	// Workers is the default release parallelism applied when a request
	// leaves hcoc.Options.Workers at 0; 0 means GOMAXPROCS.
	Workers int
	// ComputeSlots bounds the number of release computations running at
	// once; further distinct requests queue under the weighted-fair
	// scheduler, keyed by hierarchy fingerprint (identical requests
	// coalesce regardless and consume no queue slot). 0 means
	// GOMAXPROCS, minimum 2.
	ComputeSlots int
	// ComputeQueueDepth bounds each tenant's compute queue; a tenant at
	// its bound is refused with an *OverloadError rather than growing
	// an unserviceable backlog. 0 means sched.DefaultQueueDepth.
	ComputeQueueDepth int
	// TenantWeights maps hierarchy fingerprints to fair-share weights
	// for the compute scheduler; unlisted tenants get weight 1.
	TenantWeights map[string]float64
	// Store, when non-nil, is the durable tier under the LRU: completed
	// releases are written through to it, cache misses consult it
	// before recomputing, and its manifest seeds the per-hierarchy
	// budget ledger on construction.
	Store *store.Store
	// MaxEpsilonPerHierarchy, when positive, bounds the cumulative
	// epsilon of actual release computations per hierarchy fingerprint.
	// A request that would exceed it fails with a *BudgetError. Cache
	// hits, store hits and coalesced duplicates spend nothing.
	MaxEpsilonPerHierarchy float64
}

// DefaultCacheSize is the default LRU capacity in completed releases.
const DefaultCacheSize = 64

// Algorithm selects the hierarchical release algorithm.
type Algorithm int

const (
	// TopDown is the paper's Algorithm 1 (hcoc.ReleaseHierarchy).
	TopDown Algorithm = iota
	// BottomUp is the Section 6.2.2 baseline (hcoc.ReleaseBottomUp).
	BottomUp
)

// String names the algorithm as accepted by ParseAlgorithm.
func (a Algorithm) String() string {
	switch a {
	case TopDown:
		return "topdown"
	case BottomUp:
		return "bottomup"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm parses an algorithm name; the empty string selects
// TopDown, the recommended default.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "", "topdown", "top-down":
		return TopDown, nil
	case "bottomup", "bottom-up":
		return BottomUp, nil
	default:
		return 0, fmt.Errorf("engine: unknown algorithm %q (want topdown|bottomup)", s)
	}
}

// ErrNotCached reports a query against a release key that is neither in
// the cache nor in the durable store; the caller should run the release
// again.
var ErrNotCached = errors.New("engine: release not cached")

// BudgetError reports a release refused because it would push a
// hierarchy past its epsilon bound. The fields give a client everything
// it needs to adapt: what it asked for, what is left, and the bound.
type BudgetError struct {
	// Hierarchy is the tree fingerprint whose budget is exhausted.
	Hierarchy string
	// Requested is the epsilon the refused computation asked for.
	Requested float64
	// Remaining is the epsilon still spendable for this hierarchy.
	Remaining float64
	// Limit is the configured per-hierarchy bound.
	Limit float64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("engine: hierarchy %s would exceed its privacy budget: requested epsilon %g, remaining %g of %g",
		e.Hierarchy, e.Requested, e.Remaining, e.Limit)
}

// OverloadError reports a release refused at admission: the tenant's
// compute queue is at its bound. It is backpressure, not failure — the
// serving layer maps it to 429 with a Retry-After derived from
// RetryAfter.
type OverloadError struct {
	// Tenant is the hierarchy fingerprint whose queue overflowed.
	Tenant string
	// QueueDepth is the per-tenant queue bound that was hit.
	QueueDepth int
	// RetryAfter is the engine's estimate of when a retry is worth
	// making: roughly one average release computation from now.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("engine: hierarchy %s compute queue is full (%d queued); retry in %s",
		e.Tenant, e.QueueDepth, e.RetryAfter)
}

// cached is one completed release held by the LRU, in run-length form:
// a cached release costs memory proportional to the runs it holds, not
// to the public bound K.
type cached struct {
	release   hcoc.SparseHistograms
	epsilon   float64
	algorithm Algorithm
	duration  time.Duration // of the computation that produced it
	cost      int64         // CostBytes of release, fixed at admission
	fromStore bool          // revived from the durable store, not computed

	// incremental reports the computation reused a prior version's
	// retained state; stats counts what it actually re-ran (zero for
	// non-computations).
	incremental bool
	stats       hcoc.ReleaseStats
}

// call is one in-flight release computation. The computation runs in
// its own goroutine, detached from any single request: every interested
// request (the creator and coalesced duplicates alike) is a waiter, and
// the computation is abandoned only when every waiter has gone — one
// client hanging up must not fail the others.
type call struct {
	done  chan struct{}
	value *cached
	err   error

	// abandoned is closed (under Engine.mu, at most once) when waiters
	// drops to zero before a compute slot was acquired; the runner then
	// gives up its queue spot instead of computing for nobody.
	abandoned chan struct{}

	// The remaining fields are guarded by Engine.mu.
	waiters       int
	computing     bool // slot acquired; the computation can no longer be abandoned
	abandonedSent bool

	// queued and queueWait record the admission the computation saw —
	// written before done is closed, read by waiters after.
	queued    int
	queueWait time.Duration
}

// Engine is safe for concurrent use.
type Engine struct {
	id      string
	workers int
	// qos schedules compute slots across tenants (hierarchy
	// fingerprints) under weighted-fair queuing; dedup dodges it for
	// identical requests, it arbitrates the distinct ones. Reads are
	// accounted on its priority lane and never wait on it.
	qos *sched.Scheduler

	store    *store.Store // nil = memory only
	epsLimit float64      // 0 = unenforced

	mu       sync.Mutex
	cache    *lruCache
	inflight map[string]*call
	// states retains the per-node intermediate state of recent TopDown
	// computations, keyed by release key, so the next version of the
	// same hierarchy can recompute only its changed subtrees.
	states *stateCache

	// Per-hierarchy privacy spend, guarded by mu. epsSpent is the true
	// cumulative epsilon of every computation (including historical ones
	// replayed from the store manifest); accts enforces epsLimit when
	// one is set.
	epsSpent map[string]float64
	accts    map[string]*privacy.Accountant

	// epsReplayed is the spend replayed from the store manifest at
	// construction: subtracting it from the live total gives the spend
	// attributable to THIS process, which on a shared backend is what
	// distinguishes a warm start from a recompute.
	epsReplayed float64

	// tenantReqs is the per-tenant (hierarchy fingerprint) request
	// ledger, guarded by mu and bounded by maxTenantCounters.
	tenantReqs map[string]*tenantCounters

	// counters, guarded by mu
	hits, misses, deduped            uint64
	storeHits, storePuts, storeFails uint64
	evictions, releases              uint64
	queries, batches                 uint64
	releaseTotal, lastDur            time.Duration

	// incremental-recompute counters: computations that reused prior
	// state, and the cumulative node/parent recompute tallies — the
	// observable proof that deltas pay for subtrees, not trees.
	incrReleases                 uint64
	nodesEstimated, nodesTotal   uint64
	parentsMatched, parentsTotal uint64
}

// New creates an engine with the given options. When Options.Store is
// set, the manifest's historical spend is replayed into the budget
// ledger so a restart resumes enforcement where it left off.
func New(opts Options) *Engine {
	size := opts.CacheSize
	if size <= 0 {
		size = DefaultCacheSize
	}
	e := &Engine{
		id:      newInstanceID(),
		workers: opts.Workers,
		qos: sched.New(sched.Options{
			Slots:      opts.ComputeSlots,
			QueueDepth: opts.ComputeQueueDepth,
			Weights:    opts.TenantWeights,
		}),
		store:      opts.Store,
		epsLimit:   opts.MaxEpsilonPerHierarchy,
		cache:      newLRU(size, opts.CacheBytes),
		inflight:   make(map[string]*call),
		states:     newStateCache(),
		epsSpent:   make(map[string]float64),
		accts:      make(map[string]*privacy.Accountant),
		tenantReqs: make(map[string]*tenantCounters),
	}
	if e.store != nil {
		for fp, spent := range e.store.EpsilonByHierarchy() {
			if spent <= 0 {
				continue
			}
			e.epsSpent[fp] = spent
			e.epsReplayed += spent
			if e.epsLimit > 0 {
				a, err := privacy.NewAccountant(e.epsLimit)
				if err != nil {
					continue
				}
				if err := a.Spend("warm-start", spent); err != nil {
					// Historical spend exceeds the (possibly lowered)
					// bound: pin the ledger to zero remaining rather
					// than failing the boot — the budget stays closed.
					if rem := a.Remaining(); rem > 0 {
						_ = a.Spend("warm-start", rem)
					}
				}
				e.accts[fp] = a
			}
		}
	}
	return e
}

// newInstanceID mints the engine's random identity. 8 hex characters
// is plenty: the id only disambiguates the handful of nodes in one
// cluster, and health probes re-learn it after every restart.
func newInstanceID() string {
	var buf [4]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(buf[:])
}

// ID returns this engine instance's random identity, minted at
// construction and stable until the process exits. A cluster gateway
// uses it to tell backends apart across restarts and address changes:
// two probes seeing different IDs at one URL have seen a restart.
func (e *Engine) ID() string { return e.id }

// Result describes how a release request was satisfied.
type Result struct {
	// Key addresses the release in the cache for later queries.
	Key string
	// Release is the released histograms, in run-length form.
	Release hcoc.SparseHistograms
	// CacheHit reports the request was answered from the LRU without
	// any computation.
	CacheHit bool
	// StoreHit reports the request was answered from the durable store
	// without recomputation (and without privacy spend).
	StoreHit bool
	// Deduped reports the request piggybacked on an identical in-flight
	// computation started by an earlier request.
	Deduped bool
	// Duration is the wall time of the computation that produced the
	// release (zero for cache hits; for store hits, the recorded wall
	// time of the original computation).
	Duration time.Duration
	// Queued is the tenant queue depth the computation saw when it was
	// admitted to the compute scheduler (0 when a slot was free, or
	// when no computation ran at all); QueueWait is how long it waited
	// for its slot. Coalesced waiters report the admission of the
	// computation they joined.
	Queued int
	// QueueWait is the time the computation spent queued for a slot.
	QueueWait time.Duration
	// Incremental reports the computation reused a prior version's
	// retained state (false for cache/store hits and from-scratch
	// computations); Stats counts what the computation re-ran.
	Incremental bool
	// Stats is the recompute accounting of the computation that produced
	// the release (zero when no computation ran).
	Stats hcoc.ReleaseStats
}

// Release satisfies a release request: from the cache if an identical
// release completed recently, by waiting on an identical in-flight
// computation if one is running, from the durable store if a past run
// (possibly before a restart) persisted it, and by computing otherwise.
// treeFP must be FingerprintTree(tree); pass "" to have it computed
// here.
//
// The computation itself is detached from the requesting context: a
// request that cancels while waiting stops waiting, but the computation
// keeps running as long as any other coalesced request still wants it
// (and, once it holds a compute slot, runs to completion and populates
// the cache regardless — the work is already paid for).
func (e *Engine) Release(ctx context.Context, tree *hcoc.Tree, treeFP string, alg Algorithm, opts hcoc.Options) (Result, error) {
	return e.release(ctx, tree, treeFP, alg, opts, nil)
}

// release is the shared body of Release and ReleaseFrom.
func (e *Engine) release(ctx context.Context, tree *hcoc.Tree, treeFP string, alg Algorithm, opts hcoc.Options, prev []PrevVersion) (Result, error) {
	// Reject a methods list of the wrong length before keying:
	// canonicalMethods collapses uniform lists to their broadcast
	// spelling, which is only the same release when the list would have
	// validated — an invalid request must not share a key (and thus a
	// cache entry or coalesced error) with a valid one.
	if n := len(opts.Methods); n > 1 && n != tree.Depth() {
		return Result{}, fmt.Errorf("engine: got %d methods for %d levels", n, tree.Depth())
	}
	if treeFP == "" {
		treeFP = FingerprintTree(tree)
	}
	key := releaseKey(treeFP, alg, opts)

	e.mu.Lock()
	tc := e.tenantCountersFor(treeFP)
	tc.requests++
	if v, ok := e.cache.get(key); ok {
		e.hits++
		tc.cacheHits++
		e.mu.Unlock()
		return Result{Key: key, Release: v.release, CacheHit: true}, nil
	}
	c, joined := e.inflight[key]
	if joined {
		// Coalesced: piggyback on the identical in-flight computation.
		// Deliberately no scheduler interaction — a dedup hit consumes
		// no queue slot and advances no tenant's fair share; only the
		// one runner is admitted.
		e.deduped++
		tc.deduped++
		c.waiters++
	} else {
		c = &call{done: make(chan struct{}), abandoned: make(chan struct{}), waiters: 1}
		e.inflight[key] = c
		e.misses++
		go e.run(key, treeFP, c, tree, alg, opts, prev)
	}
	e.mu.Unlock()

	select {
	case <-c.done:
	case <-ctx.Done():
		e.leave(key, c)
		return Result{}, ctx.Err()
	}
	if c.err != nil {
		return Result{}, c.err
	}
	return Result{
		Key:         key,
		Release:     c.value.release,
		StoreHit:    c.value.fromStore,
		Deduped:     joined,
		Duration:    c.value.duration,
		Queued:      c.queued,
		QueueWait:   c.queueWait,
		Incremental: c.value.incremental,
		Stats:       c.value.stats,
	}, nil
}

// leave unregisters one waiter from a call. The last waiter to leave a
// call that has not yet started computing abandons it: the runner's
// queue spot is released and the key is freed for future requests. A
// call that is already computing is never abandoned — the result will
// be cached for whoever asks next.
func (e *Engine) leave(key string, c *call) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c.waiters--
	if c.waiters > 0 || c.computing || c.abandonedSent || c.abandoned == nil {
		return
	}
	c.abandonedSent = true
	close(c.abandoned)
	if e.inflight[key] == c {
		delete(e.inflight, key)
	}
}

// run drives one detached release computation: durable-store lookup
// first (free), then a compute slot, the budget charge, and the
// computation itself, publishing the outcome to every waiter.
func (e *Engine) run(key, treeFP string, c *call, tree *hcoc.Tree, alg Algorithm, opts hcoc.Options, prev []PrevVersion) {
	if e.store != nil {
		if v, ok := e.loadFromStore(key); ok {
			e.finish(key, treeFP, c, v, nil)
			return
		}
	}
	grant, err := e.qos.Acquire(chanCtx{c.abandoned}, treeFP)
	if err != nil {
		if sched.IsQueueFull(err) {
			// The tenant's compute queue is at its bound: refuse at
			// admission. Every coalesced waiter shares the refusal —
			// they asked for the same computation.
			e.finish(key, treeFP, c, nil, e.overloadError(treeFP))
			return
		}
		// Every waiter hung up before a slot freed; leave() already
		// unregistered the call.
		c.err = context.Canceled
		close(c.done)
		return
	}
	e.mu.Lock()
	if c.abandonedSent {
		// The last waiter left in the instant the slot was granted
		// (Acquire can win the race with the cancellation). Nobody
		// wants the result: give the slot back and spend nothing.
		e.mu.Unlock()
		grant.Release()
		c.err = context.Canceled
		close(c.done)
		return
	}
	c.computing = true
	c.queued = grant.Queued
	c.queueWait = grant.Wait
	e.mu.Unlock()

	v, err := e.computeThrough(key, treeFP, tree, alg, opts, prev)
	grant.Release()
	e.finish(key, treeFP, c, v, err)
}

// chanCtx adapts a call's abandoned channel to the context the compute
// scheduler blocks on — no timers, no goroutines, just the channel.
type chanCtx struct{ ch <-chan struct{} }

// Deadline implements context.Context (none).
func (c chanCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// Done implements context.Context.
func (c chanCtx) Done() <-chan struct{} { return c.ch }

// Err implements context.Context.
func (c chanCtx) Err() error {
	select {
	case <-c.ch:
		return context.Canceled
	default:
		return nil
	}
}

// Value implements context.Context (none).
func (c chanCtx) Value(any) any { return nil }

// overloadError builds the admission refusal for a tenant, estimating
// Retry-After from the average release computation (bounded to [1s,
// 30s] so the hint stays useful before the first computation and under
// pathological ones).
func (e *Engine) overloadError(treeFP string) *OverloadError {
	e.mu.Lock()
	retry := time.Second
	if e.releases > 0 {
		retry = e.releaseTotal / time.Duration(e.releases)
	}
	e.mu.Unlock()
	if retry < time.Second {
		retry = time.Second
	}
	if retry > 30*time.Second {
		retry = 30 * time.Second
	}
	return &OverloadError{Tenant: treeFP, QueueDepth: e.qos.QueueDepth(), RetryAfter: retry}
}

// finish publishes a call's outcome: cache admission and counters
// (global and per-tenant) for successes, then the broadcast to waiters.
func (e *Engine) finish(key, treeFP string, c *call, v *cached, err error) {
	e.mu.Lock()
	if e.inflight[key] == c {
		delete(e.inflight, key)
	}
	tc := e.tenantCountersFor(treeFP)
	if err == nil {
		e.evictions += uint64(e.cache.add(key, v))
		if v.fromStore {
			e.storeHits++
			tc.storeHits++
		} else {
			e.releases++
			e.releaseTotal += v.duration
			e.lastDur = v.duration
			tc.computed++
			if v.incremental {
				e.incrReleases++
			}
			e.nodesEstimated += uint64(v.stats.NodesEstimated)
			e.nodesTotal += uint64(v.stats.NodesTotal)
			e.parentsMatched += uint64(v.stats.ParentsMatched)
			e.parentsTotal += uint64(v.stats.ParentsTotal)
		}
	} else if isOverload(err) {
		tc.rejected++
	}
	e.mu.Unlock()
	c.value = v
	c.err = err
	close(c.done)
}

// isOverload reports whether err is an admission refusal.
func isOverload(err error) bool {
	var o *OverloadError
	return errors.As(err, &o)
}

// computeThrough charges the budget (in memory and, with a store,
// write-ahead in the manifest), runs the release, and writes the result
// through to the durable store.
//
// The ledger ordering is deliberate: the charge is durable BEFORE any
// noise is drawn, so a crash mid-computation over-counts spend rather
// than letting a restart forget it — and if the charge cannot be made
// durable, the computation is refused outright. A failed computation
// refunds its charge (no noise was drawn); a failed refund append
// leaves the spend on the books, the conservative direction. A failed
// artifact write after a successful computation does not fail the
// request: the release is computed, charged, cached, and served; only
// durability of the artifact is lost (and counted).
func (e *Engine) computeThrough(key, treeFP string, tree *hcoc.Tree, alg Algorithm, opts hcoc.Options, prev []PrevVersion) (*cached, error) {
	// Nonpositive epsilon never reaches the ledger; the release's own
	// validation rejects it with the canonical error.
	charged := opts.Epsilon > 0
	if charged {
		if err := e.charge(treeFP, opts.Epsilon); err != nil {
			return nil, err
		}
		if e.store != nil {
			ledger := store.Meta{Key: key, Hierarchy: treeFP, Algorithm: alg.String(),
				Epsilon: opts.Epsilon, CreatedAt: time.Now().UTC()}
			if err := e.store.AppendCharge(ledger); err != nil {
				e.refund(treeFP, opts.Epsilon)
				e.mu.Lock()
				e.storeFails++
				e.mu.Unlock()
				return nil, fmt.Errorf("engine: recording budget charge: %w", err)
			}
		}
	}
	v, state, err := e.compute(tree, alg, opts, prev)
	if err != nil {
		if charged {
			e.refund(treeFP, opts.Epsilon)
			if e.store != nil {
				ledger := store.Meta{Key: key, Hierarchy: treeFP, Algorithm: alg.String(),
					Epsilon: opts.Epsilon, CreatedAt: time.Now().UTC()}
				if rerr := e.store.AppendRefund(ledger); rerr != nil {
					e.mu.Lock()
					e.storeFails++
					e.mu.Unlock()
				}
			}
		}
		return nil, err
	}
	if state != nil {
		e.mu.Lock()
		e.states.add(key, state)
		e.mu.Unlock()
	}
	if e.store != nil {
		m := store.Meta{
			Key:        key,
			Hierarchy:  treeFP,
			Algorithm:  alg.String(),
			Epsilon:    v.epsilon,
			CostBytes:  v.cost,
			DurationMS: float64(v.duration.Microseconds()) / 1000,
			CreatedAt:  time.Now().UTC(),
		}
		err := e.store.PutRelease(m, v.release)
		e.mu.Lock()
		if err != nil {
			e.storeFails++
		} else {
			e.storePuts++
		}
		e.mu.Unlock()
	}
	return v, nil
}

// charge reserves epsilon for one computation against the hierarchy's
// ledger. With no configured bound it only records the spend.
func (e *Engine) charge(fp string, eps float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.epsLimit > 0 {
		a := e.accts[fp]
		if a == nil {
			var err error
			if a, err = privacy.NewAccountant(e.epsLimit); err != nil {
				return err
			}
			e.accts[fp] = a
		}
		if err := a.Spend("release", eps); err != nil {
			return &BudgetError{Hierarchy: fp, Requested: eps, Remaining: a.Remaining(), Limit: e.epsLimit}
		}
	}
	e.epsSpent[fp] += eps
	return nil
}

// refund returns a charge whose computation failed before drawing noise.
func (e *Engine) refund(fp string, eps float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if a := e.accts[fp]; a != nil {
		_ = a.Refund("release failed", eps)
	}
	if e.epsSpent[fp] -= eps; e.epsSpent[fp] <= 0 {
		delete(e.epsSpent, fp)
	}
}

// BudgetStatus reports a hierarchy fingerprint's cumulative privacy
// spend, the configured per-hierarchy bound, and — when that bound is
// enforced — what is still spendable under it. Without enforcement
// remaining and limit are zero and enforced is false; spent is tracked
// either way.
func (e *Engine) BudgetStatus(fp string) (spent, remaining, limit float64, enforced bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	spent = e.epsSpent[fp]
	if e.epsLimit <= 0 {
		return spent, 0, 0, false
	}
	remaining = e.epsLimit
	if a := e.accts[fp]; a != nil {
		remaining = a.Remaining()
	}
	return spent, remaining, e.epsLimit, true
}

// loadFromStore reads a persisted release into cache shape. Store read
// failures other than absence are counted, not fatal: the engine can
// always recompute.
func (e *Engine) loadFromStore(key string) (*cached, bool) {
	rel, m, err := e.store.GetRelease(key)
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			e.mu.Lock()
			e.storeFails++
			e.mu.Unlock()
		}
		return nil, false
	}
	alg, _ := ParseAlgorithm(m.Algorithm)
	return &cached{
		release:   rel,
		epsilon:   m.Epsilon,
		algorithm: alg,
		duration:  time.Duration(m.DurationMS * float64(time.Millisecond)),
		cost:      rel.CostBytes(),
		fromStore: true,
	}, true
}

// compute runs the selected release algorithm through the run-length
// pipeline, applying the engine's default parallelism when the request
// does not pin one. TopDown always runs through the state-capturing
// incremental entry point — seeded with a prior version's state when a
// candidate resolves, from scratch otherwise — so every computation
// leaves state behind for the hierarchy's next version. The returned
// state is nil for BottomUp.
func (e *Engine) compute(tree *hcoc.Tree, alg Algorithm, opts hcoc.Options, prev []PrevVersion) (*cached, *hcoc.ReleaseState, error) {
	if opts.Workers == 0 {
		opts.Workers = e.workers
	}
	start := time.Now()
	if alg == BottomUp {
		rel, err := hcoc.ReleaseBottomUpSparse(tree, opts)
		if err != nil {
			return nil, nil, err
		}
		return &cached{
			release:   rel,
			epsilon:   opts.Epsilon,
			algorithm: alg,
			duration:  time.Since(start),
			cost:      rel.CostBytes(),
		}, nil, nil
	}
	prevState, changed := e.resolvePrev(alg, opts, prev)
	rel, state, stats, err := hcoc.ReleaseSparseFrom(tree, opts, prevState, changed)
	if err != nil {
		return nil, nil, err
	}
	return &cached{
		release:     rel,
		epsilon:     opts.Epsilon,
		algorithm:   alg,
		duration:    time.Since(start),
		cost:        rel.CostBytes(),
		incremental: prevState != nil && !stats.Full(),
		stats:       stats,
	}, state, nil
}

// lookup finds a completed release by key: LRU first, then the durable
// store, admitting a store hit into the LRU so repeated reads stay in
// memory. Lookups ride the scheduler's read lane: admitted
// unconditionally, never queued behind compute.
func (e *Engine) lookup(key string) (*cached, error) {
	end := e.qos.ReadBegin()
	defer end()
	e.mu.Lock()
	v, ok := e.cache.get(key)
	e.mu.Unlock()
	if ok {
		return v, nil
	}
	if e.store == nil {
		return nil, ErrNotCached
	}
	v, ok = e.loadFromStore(key)
	if !ok {
		return nil, ErrNotCached
	}
	e.mu.Lock()
	e.storeHits++
	e.evictions += uint64(e.cache.add(key, v))
	e.mu.Unlock()
	return v, nil
}

// Sparse returns the run-length release for key — from the LRU or the
// durable store — marking it recently used, together with the epsilon
// it was released under.
func (e *Engine) Sparse(key string) (hcoc.SparseHistograms, float64, error) {
	v, err := e.lookup(key)
	if err != nil {
		return nil, 0, err
	}
	return v.release, v.epsilon, nil
}

// QueryParams selects the optional statistics of a node query; the
// always-computed ones are group count, people count, mean, median and
// Gini coefficient.
type QueryParams struct {
	// Quantiles lists quantiles in [0, 1] to evaluate.
	Quantiles []float64
	// KthLargest lists ranks for size-of-the-kth-largest-group queries.
	KthLargest []int64
	// TopCode, when positive, requests the census-style truncated table
	// with a final "TopCode or more" bucket.
	TopCode int
}

// QuantileValue is one evaluated quantile.
type QuantileValue struct {
	Q    float64
	Size int64
}

// OrderStat is one evaluated k-th largest group size.
type OrderStat struct {
	K    int64
	Size int64
}

// NodeReport summarizes one node of a cached release. All fields are
// post-processing of the released histogram and incur no privacy cost.
type NodeReport struct {
	Node       string
	Groups     int64
	People     int64
	Mean       float64
	Median     int64
	Gini       float64
	Quantiles  []QuantileValue
	KthLargest []OrderStat
	TopCoded   hcoc.Histogram
}

// Query answers the post-processing queries for one node of a completed
// release, as run scans against the sparse representation, reading from
// the LRU or the durable store. It returns ErrNotCached if the key is
// in neither tier and an error naming the node if the release has no
// such node. The always-computed statistics are omitted (zero-valued)
// for a zero-group node, which the Groups field makes unambiguous;
// explicitly requested statistics on such a node surface
// hcoc.ErrEmptyHistogram instead of silent zeros.
func (e *Engine) Query(key, node string, p QueryParams) (NodeReport, error) {
	v, err := e.lookup(key)
	e.mu.Lock()
	e.queries++
	e.mu.Unlock()
	if err != nil {
		return NodeReport{}, err
	}
	return evalNode(v.release, node, p)
}

// Metrics is a point-in-time snapshot of the engine's counters.
type Metrics struct {
	// CacheHits counts release requests answered from the LRU.
	CacheHits uint64
	// CacheMisses counts release requests that missed the LRU and
	// started a runner (which may still be satisfied by the store).
	CacheMisses uint64
	// Deduped counts release requests that piggybacked on an identical
	// in-flight computation.
	Deduped uint64
	// StoreHits counts reads served from the durable store — revived
	// releases that cost no computation and no privacy budget.
	StoreHits uint64
	// StorePuts counts releases written through to the durable store.
	StorePuts uint64
	// StoreErrors counts failed store reads/writes (the request itself
	// still succeeded; only durability was lost).
	StoreErrors uint64
	// StoreArtifacts is the number of releases the durable store holds
	// (0 without a store).
	StoreArtifacts int
	// Evictions counts completed releases dropped by the LRU.
	Evictions uint64
	// Releases counts completed release computations.
	Releases uint64
	// Queries counts node-query reads (batch entries count
	// individually).
	Queries uint64
	// Batches counts BatchQuery calls; each is one engine pass however
	// many node queries it carried.
	Batches uint64
	// InFlight is the number of release computations running now.
	InFlight int
	// CacheEntries and CacheCapacity describe LRU occupancy.
	CacheEntries, CacheCapacity int
	// CacheCostBytes is the estimated resident cost of the cached
	// releases (16 bytes per run plus per-node overhead); CacheRuns is
	// the total number of runs held. CacheBudgetBytes echoes
	// Options.CacheBytes (0 = unbudgeted).
	CacheCostBytes, CacheRuns, CacheBudgetBytes int64
	// EpsilonSpent is the cumulative epsilon of actual computations
	// across all hierarchies, including spend replayed from the store
	// manifest; EpsilonLimit echoes Options.MaxEpsilonPerHierarchy
	// (0 = unenforced). EpsilonSpentLocal excludes the replayed spend —
	// it is the epsilon THIS process has drawn. On a shared backend a
	// warm-started node replays the fleet's history, so EpsilonSpent is
	// nonzero while EpsilonSpentLocal proves the node itself spent
	// nothing.
	EpsilonSpent, EpsilonSpentLocal, EpsilonLimit float64
	// ReleaseTotal is the cumulative computation time across Releases;
	// LastRelease is the duration of the most recent one.
	ReleaseTotal, LastRelease time.Duration
	// IncrementalReleases counts computations that reused a prior
	// version's retained state instead of recomputing every node.
	IncrementalReleases uint64
	// RecomputeNodesEstimated and RecomputeNodesTotal accumulate, across
	// all computations, the nodes whose DP estimate was re-run versus
	// the nodes the trees held; the gap is work that deltas avoided.
	// RecomputeParentsMatched / RecomputeParentsTotal do the same for
	// the matching stage.
	RecomputeNodesEstimated, RecomputeNodesTotal   uint64
	RecomputeParentsMatched, RecomputeParentsTotal uint64
	// StateEntries and StateCostBytes describe the retained-state cache.
	StateEntries   int
	StateCostBytes int64
}

// HitRate is the fraction of release requests answered from the cache
// (0 when none have been served).
func (m Metrics) HitRate() float64 {
	total := m.CacheHits + m.CacheMisses + m.Deduped
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(total)
}

// AvgRelease is the mean release computation time (0 before the first).
func (m Metrics) AvgRelease() time.Duration {
	if m.Releases == 0 {
		return 0
	}
	return m.ReleaseTotal / time.Duration(m.Releases)
}

// Metrics returns a snapshot of the engine's counters.
func (e *Engine) Metrics() Metrics {
	var artifacts int
	if e.store != nil {
		artifacts = e.store.Len()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var spent float64
	for _, eps := range e.epsSpent {
		spent += eps
	}
	local := spent - e.epsReplayed
	if local < 0 {
		local = 0
	}
	return Metrics{
		CacheHits:         e.hits,
		CacheMisses:       e.misses,
		Deduped:           e.deduped,
		StoreHits:         e.storeHits,
		StorePuts:         e.storePuts,
		StoreErrors:       e.storeFails,
		StoreArtifacts:    artifacts,
		Evictions:         e.evictions,
		Releases:          e.releases,
		Queries:           e.queries,
		Batches:           e.batches,
		InFlight:          len(e.inflight),
		CacheEntries:      e.cache.len(),
		CacheCapacity:     e.cache.capacity,
		CacheCostBytes:    e.cache.cost,
		CacheRuns:         e.cache.runs(),
		CacheBudgetBytes:  e.cache.budget,
		EpsilonSpent:      spent,
		EpsilonSpentLocal: local,
		EpsilonLimit:      e.epsLimit,
		ReleaseTotal:      e.releaseTotal,
		LastRelease:       e.lastDur,

		IncrementalReleases:     e.incrReleases,
		RecomputeNodesEstimated: e.nodesEstimated,
		RecomputeNodesTotal:     e.nodesTotal,
		RecomputeParentsMatched: e.parentsMatched,
		RecomputeParentsTotal:   e.parentsTotal,
		StateEntries:            e.states.len(),
		StateCostBytes:          e.states.costBytes(),
	}
}

// tenantCounters is the per-tenant request ledger, guarded by
// Engine.mu.
type tenantCounters struct {
	requests  uint64 // release requests, however satisfied
	cacheHits uint64 // answered from the LRU
	deduped   uint64 // coalesced onto an in-flight computation
	storeHits uint64 // computations satisfied by the durable store
	computed  uint64 // actual release computations
	rejected  uint64 // refused at scheduler admission (overload)
}

// maxTenantCounters bounds the engine's per-tenant ledger, mirroring
// the scheduler's own tenant-table backstop.
const maxTenantCounters = 4096

// tenantCountersFor finds or creates the ledger entry for a hierarchy
// fingerprint. Callers hold e.mu. At the bound an arbitrary entry is
// shed — a backstop against synthetic fingerprints, not a fairness
// mechanism.
func (e *Engine) tenantCountersFor(fp string) *tenantCounters {
	tc := e.tenantReqs[fp]
	if tc == nil {
		if len(e.tenantReqs) >= maxTenantCounters {
			for k := range e.tenantReqs {
				delete(e.tenantReqs, k)
				break
			}
		}
		tc = &tenantCounters{}
		e.tenantReqs[fp] = tc
	}
	return tc
}

// Scheduler exposes the engine's compute scheduler for observability
// and tests. Mutating admission state through it (Acquire) is the
// prerogative of tests that need to saturate the pool deterministically.
func (e *Engine) Scheduler() *sched.Scheduler { return e.qos }

// SetTenantWeights replaces the compute scheduler's tenant weight table
// (see sched.Scheduler.SetWeights): listed hierarchy fingerprints take
// the new weight, all others revert to 1.
func (e *Engine) SetTenantWeights(weights map[string]float64) error {
	return e.qos.SetWeights(weights)
}

// TenantStat is one tenant's (hierarchy fingerprint's) QoS and request
// ledger: the scheduler's admission state merged with the engine's
// request counters and privacy spend.
type TenantStat struct {
	// Tenant is the hierarchy fingerprint.
	Tenant string
	// Weight is the tenant's fair-share weight; Active and Queued its
	// current compute slots held and waiters queued.
	Weight float64
	// Active and Queued describe the tenant's scheduler state now.
	Active, Queued int
	// Granted, Rejected and Cancelled are the scheduler's lifetime
	// admission counters for this tenant (Rejected counts queue-bound
	// refusals; Cancelled waiters that gave up before their turn).
	Granted, Rejected, Cancelled uint64
	// QueueWait is the cumulative time the tenant's granted
	// computations spent queued.
	QueueWait time.Duration
	// Requests counts release requests however satisfied; CacheHits,
	// Deduped, StoreHits and Computed break down how.
	Requests, CacheHits, Deduped, StoreHits, Computed uint64
	// EpsilonSpent is the tenant's cumulative privacy spend, including
	// spend replayed from the store manifest.
	EpsilonSpent float64
}

// TenantStats reports every known tenant, sorted by fingerprint: the
// union of tenants the scheduler has admitted, tenants with engine
// request history, and hierarchies with recorded privacy spend.
func (e *Engine) TenantStats() []TenantStat {
	byName := make(map[string]*TenantStat)
	get := func(fp string) *TenantStat {
		ts := byName[fp]
		if ts == nil {
			ts = &TenantStat{Tenant: fp, Weight: 1}
			byName[fp] = ts
		}
		return ts
	}
	for _, st := range e.qos.Tenants() {
		ts := get(st.Tenant)
		ts.Weight = st.Weight
		ts.Active, ts.Queued = st.Active, st.Queued
		ts.Granted, ts.Rejected, ts.Cancelled = st.Granted, st.Rejected, st.Cancelled
		ts.QueueWait = st.WaitTotal
	}
	e.mu.Lock()
	for fp, tc := range e.tenantReqs {
		ts := get(fp)
		ts.Requests, ts.CacheHits, ts.Deduped = tc.requests, tc.cacheHits, tc.deduped
		ts.StoreHits, ts.Computed = tc.storeHits, tc.computed
		if ts.Rejected < tc.rejected {
			// The scheduler prunes idle tenants; the engine ledger
			// remembers refusals the scheduler may have forgotten.
			ts.Rejected = tc.rejected
		}
	}
	for fp, eps := range e.epsSpent {
		get(fp).EpsilonSpent = eps
	}
	e.mu.Unlock()
	out := make([]TenantStat, 0, len(byName))
	for _, ts := range byName {
		out = append(out, *ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
