package engine

import (
	"hcoc"
	"hcoc/internal/query/plan"
)

// Query answers one node query through the planner, over the same
// cache tiers as EvalBatch; it counts one query and no batch. Failures,
// an unknown release key (wrapping ErrNotCached) included, are reported
// on the Result.
func (e *Engine) Query(q plan.Query) plan.Result {
	res := e.execute([]plan.Query{q})[0]
	e.mu.Lock()
	e.queries++
	e.mu.Unlock()
	return res
}

// EvalBatch evaluates a planned batch against the engine's two cache
// tiers: the scan-sharing planner groups the queries by release key,
// each distinct key is looked up exactly once (LRU, then durable
// store), and every query is answered with run scans over the shared
// artifacts. Per-query failures — including an individual key
// missing from both tiers, which wraps ErrNotCached — are reported on
// the corresponding plan.Result and never fail the batch.
func (e *Engine) EvalBatch(qs []plan.Query) []plan.Result {
	out := e.execute(qs)
	e.mu.Lock()
	e.queries += uint64(len(qs))
	e.batches++
	e.mu.Unlock()
	return out
}

// execute plans qs and runs the plan over the LRU → store lookup.
func (e *Engine) execute(qs []plan.Query) []plan.Result {
	return plan.New(qs).Execute(plan.SourceFunc(func(key string) (hcoc.SparseHistograms, error) {
		v, err := e.lookup(key)
		if err != nil {
			return nil, err
		}
		return v.release, nil
	}))
}
