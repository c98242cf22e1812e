// Package store is the durable layer under the serving engine's LRU: a
// content-addressed artifact store that keeps every completed release
// as an hcoc-release/v2-sparse file, plus the uploaded hierarchies
// needed to recompute them. Releases are expensive one-shot
// computations whose value is repeated post-processing queries;
// persisting them makes a daemon restart a warm start instead of a
// re-spend of both CPU and privacy budget.
//
// Persistence is pluggable behind the BlobStore interface: a flat
// namespace of immutable objects plus one append-only manifest log.
// Two backends ship:
//
//   - Disk (the default, and the only pre-BlobStore format): objects
//     are files under the data directory, written temp+rename+fsync;
//     the manifest is a single fsynced append-only file. Old data
//     directories load unchanged.
//   - S3 (any S3-compatible endpoint, SigV4-signed): objects are keys
//     under a bucket/prefix; since object stores cannot append, the
//     manifest is a sequence of chunk objects under manifest/,
//     replayed by listing, sorting, and concatenating them; a handle
//     keeps the chunks it has written or fetched, so a re-read fetches
//     only chunks it has not seen. An S3
//     backend is Shared: several serve nodes may point at one bucket,
//     and a node with an empty local disk warm-starts directly from
//     the shared manifest.
//
// Logical layout (file paths on disk, object keys on S3):
//
//	manifest.jsonl            append-only JSON lines: "charge"/"refund"
//	(manifest/<seq>.jsonl     privacy-ledger entries plus one "release"
//	 chunks on S3)            entry per stored artifact (key, hierarchy
//	                          fingerprint, algorithm, epsilon, cost,
//	                          duration) and one "event" entry per event
//	                          chunk
//	releases/<key>.json       v2-sparse release artifacts
//	events/<id>/<seq>.json    event-log chunks: a hierarchy's snapshot
//	                          upload and every delta
//	hierarchies/<fp>.json     uploaded group records from before the
//	                          event log, read only to migrate them
//
// All writes are crash-safe: an object lands completely or not at all,
// manifest appends are durable before they are indexed, and a torn
// final manifest line (a crash mid-append) is dropped on reopen (the
// disk backend cuts it off before its next append). The
// manifest is the source of truth for what the store holds and for the
// cumulative epsilon spent per hierarchy — charges are written ahead
// of the noise draw, so a crash can only over-count spend, never
// under-count it.
package store
