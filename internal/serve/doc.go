// Package serve is the HTTP layer of the hcoc-serve daemon: routing,
// request decoding and validation, and error mapping over the release
// engine (internal/engine) and the durable store (internal/store). The
// transport it shares with the SDK and the gateway (the gzip codec,
// the body bound, JSON and error writing, the /metrics writer) lives
// in internal/httpx; the upload check and the tree fingerprint live in
// internal/hierarchy.
//
// Request and answer bodies are the exported types of the client SDK
// (hcoc/client), the one Go definition of the /v1 schema; handlers
// decode into them and encode from them, so the SDK and the daemon
// cannot drift apart. Only the envelopes the SDK builds inline, the
// /healthz answer and the error bodies have types of their own here.
// TestWireGolden pins the bytes of every JSON route.
//
// The package exists separately from cmd/hcoc-serve so the full
// serving stack can be run in-process — httptest servers in the client
// SDK's tests and examples, cmd/hcoc-load's tests, and benchmarks all
// exercise the real handlers rather than stubs.
//
// Routes are registered from a single table (see Routes), which the
// OpenAPI coverage test compares against docs/openapi.yaml so the spec
// cannot silently drift from the implementation. Endpoint semantics —
// status codes, request/response shapes, the async job lifecycle — are
// documented in that spec and in the repository README.
package serve
