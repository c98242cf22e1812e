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

// ReleaseFrom is Release with incremental-recompute candidates: when
// the computation actually runs (no cache or store hit), the
// engine looks up retained per-node state for each candidate's release
// key — same algorithm and options, the candidate's fingerprint — and
// seeds hcoc.ReleaseSparseFrom with the first hit. The released
// histograms are bit-identical to a from-scratch release either way;
// only the work is smaller. Candidates apply to TopDown only.
func (e *Engine) ReleaseFrom(ctx context.Context, tree *hcoc.Tree, treeFP string, alg Algorithm, opts hcoc.Options, prev []PrevVersion) (Result, error) {
	return e.release(ctx, tree, treeFP, alg, opts, prev)
}

// stateCap bounds the retained release states. States are a few
// times the size of the release artifact (they keep rank order and
// variances the artifact discards), so the bound is deliberately
// smaller than the release LRU's.
const stateCap = 32

// stateCache is a small LRU of per-release recompute state, keyed by
// release key. Guarded by Engine.mu.
type stateCache struct {
	m     map[string]*hcoc.ReleaseState
	order []string // least recently used first
}

func newStateCache() *stateCache {
	return &stateCache{m: make(map[string]*hcoc.ReleaseState)}
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
	st, ok := s.m[key]
	if ok {
		s.touch(key)
	}
	return st, ok
}

func (s *stateCache) add(key string, st *hcoc.ReleaseState) {
	if st == nil {
		return
	}
	s.m[key] = st
	s.touch(key)
	for len(s.m) > stateCap {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.m, oldest)
	}
}

func (s *stateCache) len() int { return len(s.m) }

// costBytes sums the retained states' estimated resident cost.
func (s *stateCache) costBytes() int64 {
	var b int64
	for _, st := range s.m {
		b += st.CostBytes()
	}
	return b
}

// resolvePrev finds the first candidate with retained state, returning
// the state and its changed set. Caller must NOT hold e.mu.
func (e *Engine) resolvePrev(alg Algorithm, opts hcoc.Options, prev []PrevVersion) (*hcoc.ReleaseState, map[string]bool) {
	if alg != TopDown || len(prev) == 0 {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range prev {
		if p.TreeFP == "" || p.Changed == nil {
			continue
		}
		if st, ok := e.states.get(releaseKey(p.TreeFP, alg, opts)); ok {
			return st, p.Changed
		}
	}
	return nil, nil
}
