// Package plan is the one evaluator of node queries in the serving
// engine: GET /v1/query/{node} runs a plan of one query and
// POST /v1/query/batch a plan of the whole batch. It is a small query
// IR in which each entry names one or more release keys plus an
// aggregate, a greedy scan-sharing planner that groups a batch by
// release key so each distinct artifact is fetched from the serving
// engine exactly once however many queries touch it, and an evaluator
// over the run-length sparse representation that never materializes a
// dense histogram. The evaluator computes no statistic itself: node
// reports come from query.ReportSparse, distances from
// histogram.EMDSparse, and deltas from the runs' group and people
// totals.
//
// Five aggregates are supported. OpStats is the single-release node
// report: the answer to a GET and to a plain batch entry. The
// cross-release ops compare releases of the same hierarchy: OpEMD
// reports the earthmover's distance (drift) between two releases of a
// node, OpDelta the per-node group/people count deltas, OpSeries a time
// series of the summary statistics across an ordered list of release
// versions, and OpCompare a side-by-side pair of full node reports (for
// example an hc-estimated release against an hg-estimated one).
//
// Evaluation is pure post-processing of released histograms and spends
// no privacy budget. Per-query failures (unknown release key, a node
// missing from one release — mismatched hierarchies — or malformed
// parameters) are reported on the individual Result and never fail the
// batch.
package plan
