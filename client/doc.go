// Package client is the official Go SDK for an hcoc-serve daemon: a
// typed wrapper over every /v1 endpoint of the HTTP API.
//
// A Client is created once and shared:
//
//	c, err := client.New("http://localhost:8080")
//	h, err := c.UploadHierarchy(ctx, "US", groups)
//	rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1})
//	results, err := c.BatchQuery(ctx, rel.Release, queries)
//
// # Wire schema
//
// The exported request and answer types (Hierarchy, Event,
// HierarchyVersion, AppendResult, ReleaseRequest, Release, Job,
// ReleaseArtifact, NodeReport, NodeQuery, NodeResult, Budget,
// TenantsStatus and their element types) are the /v1 schema: hcoc-serve
// decodes requests into and encodes answers from these same types, so
// their JSON field names and order are the bytes on the wire.
//
// # Transport behavior
//
// Every call takes a context and honors its deadline and cancellation,
// including while backing off between retries. Backpressure responses
// (503 job-table-full, generic 429) are retried with exponential
// backoff, honoring a server Retry-After; privacy-budget refusals —
// 429 with a machine-readable budget body — are terminal and surface
// as *BudgetError without a retry, because waiting does not replenish
// a privacy budget. Other failures are *APIError with the HTTP status
// and server message.
//
// Request bodies of at least 1 KiB (hierarchy uploads, cross-release
// batches) are gzip-compressed automatically, at the default level.
// API calls send Accept-Encoding: gzip themselves, the header the
// transport would send, and decompress a gzipped answer or error
// themselves, so they decode on a transport with compression disabled
// too. Compressors and decompressors come from the gzip codec the
// daemon and the gateway use as well, which keeps one idle compressor
// and one idle decompressor per CPU for reuse (a compressor is about
// 800 KB). Calls read what is left of every body (up to 64 KiB) before
// closing it, so the connection carries the next request. Artifact
// downloads rely on the transport's own decompression, and Do returns
// the bytes the daemon sent.
//
// # Asynchronous releases
//
// ReleaseAsync submits a release job and returns immediately; WaitJob
// polls it to completion. A failed job is a *JobFailedError carrying
// the terminal snapshot.
//
// See docs/openapi.yaml in the repository for the wire-level contract
// and cmd/hcoc-load for a load generator built on this package.
package client
