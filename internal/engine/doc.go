// Package engine is the concurrent release manager behind
// cmd/hcoc-serve. It separates the expensive private release
// computation from cheap repeated query serving: release requests are
// fingerprinted by (tree, algorithm, options), identical in-flight
// computations are deduplicated so a burst of equal requests costs one
// run of Algorithm 1, completed releases are held in a bounded LRU
// backed by an optional durable store (internal/store), and the
// post-processing queries of the hcoc package are answered as reads
// against those tiers at no additional privacy cost. Every actual
// computation is charged to one ledger, the epsilon spent per tree
// fingerprint, which enforces two optional bounds under one lock: the
// per-hierarchy bound on a fingerprint's own spend, and the continual
// bound on the spend summed over the distinct fingerprints of a
// hierarchy's versions. Cache hits, store hits and deduplicated
// requests are free, and the ledger is replayed from the store's
// manifest on a warm start so restarts cannot reset the spend.
package engine
