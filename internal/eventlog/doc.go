// Package eventlog models hierarchy ingestion as an append-only,
// crash-safe event log: a snapshot event establishes a hierarchy, and
// ordered delta events (add/remove groups, count drift) evolve it. Each
// applied event produces a new immutable hierarchy version — a
// monotonic sequence number plus the content fingerprint of its tree —
// so releases, queries, and downloads can pin a version and stay
// byte-stable while the hierarchy keeps moving underneath.
//
// The head tree is the log's state. A delta is applied to it
// copy-on-write: the next version has its own Node structs, new
// histograms on the touched root-to-leaf paths only, and shares every
// other node's histogram slice with the version before, so an append
// costs the touched cells plus one fingerprint pass. A delta that adds
// or empties a leaf, and every snapshot, builds the tree anew through
// hierarchy.Builder. Append, replay, historical rebuilds and
// Manager.Create share this one apply.
//
// Persistence is the write/read split of CQRS event sourcing: one
// chunk object per event under events/<log>/<seq>.json in the shared
// BlobStore (Put is atomic, so a torn append is simply an absent
// object), plus a spend-neutral KindEvent manifest entry for
// discovery. Replay reads chunks in sequence and stops at the first
// missing or torn one — the last durable version — and verifies each
// version's tree against the fingerprint recorded at append time.
package eventlog
