package engine

import (
	"context"

	"hcoc"
)

// PrevVersion names a prior hierarchy version whose release state may
// seed an incremental computation. TreeFP is the prior version's
// fingerprint; Changed is the set of node paths that differ between
// that version and the one being released (hcoc.ReleaseSparseFrom's
// changed-set contract: touched leaves plus all their ancestors). A nil
// Changed disqualifies the candidate — "unknown delta" must never be
// read as "nothing changed".
type PrevVersion struct {
	TreeFP  string
	Changed map[string]bool
}

// ReleaseFrom is Release for one version of an evolving hierarchy. It
// takes the hierarchy's history as two functions, each called only when
// a computation actually runs, so a cache hit, store hit or dedup never
// walks the version history.
//
// prev, when non-nil, names incremental-recompute candidates: the
// engine looks up retained per-node state for each candidate's release
// key — same algorithm and options, the candidate's fingerprint — and
// seeds hcoc.ReleaseSparseFrom with the first hit. The released
// histograms are bit-identical to a from-scratch release either way;
// only the work is smaller. Candidates apply to TopDown only.
//
// lineage, when non-nil, returns the fingerprints of every version of
// the hierarchy (repeats allowed): the spend Options.MaxEpsilonContinual
// bounds. The engine calls it, with its lock held, when it checks the
// bounds before queueing a computation and again when it charges it,
// so it must return promptly and must not call back into the engine;
// eventlog.Log.Fingerprints, whose lock is never held across I/O,
// qualifies.
func (e *Engine) ReleaseFrom(ctx context.Context, tree *hcoc.Tree, treeFP string, alg Algorithm, opts hcoc.Options, prev func() []PrevVersion, lineage func() []string) (Result, error) {
	return e.release(ctx, tree, treeFP, alg, opts, prev, lineage)
}

// stateCap bounds the retained release states. States are a few
// times the size of the release artifact (they keep rank order and
// variances the artifact discards), so the bound is deliberately
// smaller than the release LRU's.
const stateCap = 32

// stateCache is a small LRU of per-release recompute state, keyed by
// release key. Guarded by Engine.mu.
type stateCache struct {
	m     map[string]stateEntry
	order []string // least recently used first
	// cost is the sum of the retained states' CostBytes, kept as states
	// come and go so that Engine.Metrics reads it without a walk.
	cost int64
}

// stateEntry is one retained state with its CostBytes, computed once on
// add: a state never changes after its release.
type stateEntry struct {
	st   *hcoc.ReleaseState
	cost int64
}

func newStateCache() *stateCache {
	return &stateCache{m: make(map[string]stateEntry)}
}

func (s *stateCache) touch(key string) {
	for i, k := range s.order {
		if k == key {
			s.order = append(append(s.order[:i:i], s.order[i+1:]...), key)
			return
		}
	}
	s.order = append(s.order, key)
}

func (s *stateCache) get(key string) (*hcoc.ReleaseState, bool) {
	e, ok := s.m[key]
	if ok {
		s.touch(key)
	}
	return e.st, ok
}

func (s *stateCache) add(key string, st *hcoc.ReleaseState) {
	if st == nil {
		return
	}
	e := stateEntry{st: st, cost: st.CostBytes()}
	s.cost += e.cost - s.m[key].cost // a replaced entry's cost leaves
	s.m[key] = e
	s.touch(key)
	for len(s.m) > stateCap {
		oldest := s.order[0]
		s.order = s.order[1:]
		s.cost -= s.m[oldest].cost
		delete(s.m, oldest)
	}
}

func (s *stateCache) len() int { return len(s.m) }

// resolvePrev finds the first candidate with retained state, returning
// the state and its changed set. Caller must NOT hold e.mu.
func (e *Engine) resolvePrev(alg Algorithm, opts hcoc.Options, prev func() []PrevVersion) (*hcoc.ReleaseState, map[string]bool) {
	if alg != TopDown || prev == nil {
		return nil, nil
	}
	cands := prev()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range cands {
		if p.TreeFP == "" || p.Changed == nil {
			continue
		}
		if st, ok := e.states.get(releaseKey(p.TreeFP, alg, opts)); ok {
			return st, p.Changed
		}
	}
	return nil, nil
}
