// Package gateway is the sharded-serving front end: an HTTP handler
// exposing the same /v1 surface as a single hcoc-serve backend, and
// relaying every request across a fleet of them as bytes.
//
// The fleet shares one blob store (hcoc-serve -store-backend=s3 on one
// bucket and prefix), so any backend can read any release and the
// gateway never copies artifacts. Hierarchies are placed on a
// consistent-hash ring by content fingerprint with replication factor
// R: uploads and event appends fan out to all R owners, releases run on
// the primary, and reads and batches — cross-release ones included —
// forward whole down the deterministic primary→replica order when a
// backend is down, so a release computed before a node dies keeps
// being served, bit-identical, after it dies.
//
// A forward sends the caller's method, path, raw query, end-to-end
// headers and buffered body to one backend through client.Client.Do,
// and relays the answer's status, headers and body verbatim, in the
// backend's encoding. A transport error, a 404 or a 5xx moves on to
// the next backend before any byte is relayed; anything else is the
// answer. The gateway decodes only its routing keys: an upload's tree
// fingerprint, the hierarchy of a release body, the first release of a
// batch, and, from a release answer, its release id or job Location.
// Cluster-wide listings (GET /v1/hierarchy, GET /v1/release) send the
// caller's query to every live backend and merge the answers,
// deduplicated. GET /v1/cluster exposes the topology: ring parameters,
// per-backend health and traffic counters, and (with ?key) a key's
// current failover route.
//
// Health comes from hcoc/internal/cluster: periodic /healthz probes
// and request-path failures share one ejection counter, and the first
// success — probe or forwarded request — re-admits a backend. The
// command wrapper is cmd/hcoc-gateway.
//
// The gateway links the SDK, the ring, the shared transport
// (internal/httpx: body bound, gzip codec, error bodies, /metrics
// writer) and internal/hierarchy for the upload check and the tree
// fingerprint; it links none of the backend's packages.
package gateway
