// Package gateway is the sharded-serving front end: an HTTP handler
// exposing the same /v1 surface as a single hcoc-serve backend, but
// routing every request across a fleet of them through the client SDK.
//
// The fleet shares one blob store (hcoc-serve -store-backend=s3 on one
// bucket and prefix), so any backend can read any release and the
// gateway never copies artifacts. Hierarchies are placed on a
// consistent-hash ring by content fingerprint with replication factor
// R: uploads and event appends fan out to all R owners, releases run on
// the primary, and reads and batches — cross-release ones included —
// forward whole down the deterministic primary→replica order when a
// backend is down, so a release computed before a node dies keeps
// being served, bit-identical, after it dies. Cluster-wide listings
// (GET /v1/hierarchy, GET /v1/release) scatter-gather across the live
// backends and merge deduplicated results. GET /v1/cluster exposes the
// topology: ring parameters, per-backend health and traffic counters,
// and (with ?key) a key's current failover route.
//
// Health comes from hcoc/internal/cluster: periodic /healthz probes
// and request-path failures share one ejection counter, and the first
// success — probe or forwarded request — re-admits a backend. The
// command wrapper is cmd/hcoc-gateway.
package gateway
