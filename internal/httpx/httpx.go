package httpx

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"strings"
)

// MaxBodyBytes bounds request bodies, decompressed or not; a group
// record is tens of bytes, so this admits tens of millions of groups.
const MaxBodyBytes = 1 << 30

// Route is one endpoint: an HTTP method, a net/http mux pattern (path
// parameters spelled {id}, {node...}) and the handler serving it.
type Route struct {
	Method  string
	Pattern string
	Handler http.HandlerFunc
}

// NewMux registers every route on a new ServeMux.
func NewMux(routes []Route) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.Handler)
	}
	return mux
}

// WrapRequest applies the request side of the transport conventions:
// the body is bounded at maxBody and, with Content-Encoding: gzip,
// transparently decompressed under the same bound. ok reports whether
// to proceed; false means an error response was already written (an
// unsupported Content-Encoding, 415). When ok, the returned release
// func must be deferred around the handler: it hands a gzip body's
// decompressor back for reuse, which the body's Close cannot do,
// because net/http closes the body it created, not this wrapper.
func WrapRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (*http.Request, func(), bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	switch ce := r.Header.Get("Content-Encoding"); {
	case strings.EqualFold(ce, "gzip"):
		b := &gzipBody{src: r.Body, limit: maxBody}
		r.Body = b
		r.Header.Del("Content-Encoding")
		return r, b.release, true
	case ce != "" && !strings.EqualFold(ce, "identity"):
		WriteError(w, http.StatusUnsupportedMediaType, "unsupported Content-Encoding %q; send gzip or identity", ce)
		return nil, nil, false
	}
	return r, func() {}, true
}

// CompressResponse applies the response side of the transport
// conventions: a body of at least GzipMinSize bytes is gzip-compressed
// when the client accepts it, and a shorter one goes out as identity.
// The returned finish func must be deferred around the handler (it
// flushes the compressor, or sends the short body).
//
// Artifact downloads (GET /v1/release/{id}) are always served identity:
// they go through http.ServeContent for zero-copy streaming with exact
// Content-Length, strong ETags, and byte ranges — all of which
// on-the-fly compression would break (a gzip body has no predictable
// length, and a range into compressed bytes is not a range into the
// artifact).
func CompressResponse(w http.ResponseWriter, r *http.Request) (http.ResponseWriter, func()) {
	if !acceptsGzip(r) || isArtifactDownload(r) {
		return w, func() {}
	}
	gw := gzipResponses.Get().(*gzipResponseWriter)
	gw.ResponseWriter = w
	return gw, func() {
		gw.finish()
		*gw = gzipResponseWriter{buf: gw.buf[:0]}
		gzipResponses.Put(gw)
	}
}

// isArtifactDownload reports whether the request reads a release
// artifact (GET/HEAD /v1/release/{id} — the trailing slash excludes the
// GET /v1/release listing, which stays compressible).
func isArtifactDownload(r *http.Request) bool {
	return (r.Method == http.MethodGet || r.Method == http.MethodHead) &&
		strings.HasPrefix(r.URL.Path, "/v1/release/")
}

// errorResponse is the JSON shape of every non-2xx response: a human
// message plus a machine-readable code clients can branch on without
// parsing prose.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// errorCode maps an HTTP status to its default machine-readable error
// code. Handlers with something more specific to say (budget,
// overload, version_conflict) write a typed body instead.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "version_conflict"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusUnsupportedMediaType:
		return "unsupported_media"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusInsufficientStorage:
		return "insufficient_storage"
	default:
		return "internal"
	}
}

// WriteJSON writes v as a compact JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the canonical {"error", "code"} body every non-2xx
// response carries, deriving the code from the status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: errorCode(status)})
}

// DecodeJSON parses a POST body into v, writing the precise failure
// status itself: 415 for a non-JSON Content-Type, 413 when the body
// overran the MaxBytesReader bound (which would otherwise surface as a
// generic parse error), 400 for malformed JSON. It reports whether the
// handler should proceed.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	// An absent Content-Type is accepted as JSON — the API has exactly
	// one body format — but an explicit wrong one is a client bug worth
	// naming.
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || (mt != "application/json" && mt != "text/json") {
			WriteError(w, http.StatusUnsupportedMediaType,
				"unsupported Content-Type %q; send application/json", ct)
			return false
		}
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			WriteError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooLarge.Limit)
			return false
		}
		WriteError(w, http.StatusBadRequest, "parsing request: %v", err)
		return false
	}
	return true
}
