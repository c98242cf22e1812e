// Package httpx holds the HTTP conventions every hcoc tier shares (the
// client SDK, the daemon and the gateway), on the standard library
// only: one gzip codec over bounded lists of idle compressors and
// decompressors (Gzip, Decompressor, WrapRequest, CompressResponse),
// one body bound and error body (MaxBodyBytes, DecodeJSON, WriteError),
// one /metrics writer (Metrics), one server lifecycle (Daemon) and one
// reader of URL-list files (ReadURLFile).
package httpx
