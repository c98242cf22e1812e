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
// Large request bodies (hierarchy uploads) are gzip-compressed
// automatically. API calls send Accept-Encoding: gzip themselves, the
// header the transport would send, and decompress a gzipped answer or
// error with a reused decompressor (one idle per CPU), so they decode
// on a transport with compression disabled too. They read what is left
// of every body (up to 64 KiB) before closing it, so the connection
// carries the next request. Artifact downloads rely on the transport's
// own decompression, and Do returns the bytes the daemon sent.
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
