package serve

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// gzipWriters holds idle response compressors. A flate writer's state
// is about 800 KB. A sync.Pool drops its idle entries at every garbage
// collection, and under read load, with compressed answers rare and
// collections frequent, rebuilding them made up half of all bytes the
// process allocated. Compression is CPU-bound, so one idle compressor
// per CPU is kept, and no more.
var gzipWriters = make(chan *gzip.Writer, runtime.GOMAXPROCS(0))

// getGzipWriter returns an idle compressor, or a new one, writing to w.
func getGzipWriter(w io.Writer) *gzip.Writer {
	select {
	case zw := <-gzipWriters:
		zw.Reset(w)
		return zw
	default:
		return gzip.NewWriter(w)
	}
}

// putGzipWriter keeps zw for reuse unless the idle list is full.
func putGzipWriter(zw *gzip.Writer) {
	select {
	case gzipWriters <- zw:
	default:
	}
}

// gzipMinSize is the smallest response body worth compressing, the
// threshold the SDK also applies to request bodies. Below it a
// compressor costs more than the bytes it saves: resetting one clears
// hundreds of KB of tables, even for a 300-byte answer.
const gzipMinSize = 1 << 10

// The transport layer speaks gzip in both directions: POST bodies may
// arrive with Content-Encoding: gzip (a hierarchy upload is highly
// repetitive JSON, typically 10-20x smaller compressed), and a
// response body of gzipMinSize bytes or more is compressed when the
// client advertised Accept-Encoding: gzip. JSON answers are compact,
// so most single-node answers stay under the threshold and go out as
// identity. Decompressed request bodies are bounded exactly like plain
// ones, so a gzip bomb hits the same 413 as an oversized upload.

// gzipReader is an idle request decompressor: a gzip reader with its
// 32 KB flate window, and the buffer it reads the body through (a
// gzip reader over a source without ReadByte allocates one per Reset).
// It mirrors the SDK's response decompressor instead of sharing it:
// the SDK keeps its decompressor unexported.
type gzipReader struct {
	br *bufio.Reader
	zr gzip.Reader
}

// gzipReaders holds idle request decompressors. Decompression is
// CPU-bound, so one idle decompressor per CPU is kept, and no more.
var gzipReaders = make(chan *gzipReader, runtime.GOMAXPROCS(0))

// gzipBody lazily decompresses a request body. The decompressor is
// taken on first Read, so an empty or malformed stream surfaces as a
// decode error on the request, not at wrap time, and a handler that
// never reads the body takes none. The decompressed byte count is
// bounded by limit, surfacing the same *http.MaxBytesError an
// oversized plain body produces. net/http closes the body it created,
// never this wrapper, so the decompressor goes back in release, which
// WrapRequest's caller runs when the handler returns.
type gzipBody struct {
	src   io.ReadCloser
	d     *gzipReader // nil until the first Read, and again after release
	limit int64
	read  int64
}

func (b *gzipBody) Read(p []byte) (int, error) {
	if b.d == nil {
		select {
		case b.d = <-gzipReaders:
			b.d.br.Reset(b.src)
		default:
			b.d = &gzipReader{br: bufio.NewReader(b.src)}
		}
		if err := b.d.zr.Reset(b.d.br); err != nil {
			return 0, fmt.Errorf("gzip request body: %w", err)
		}
	}
	n, err := b.d.zr.Read(p)
	b.read += int64(n)
	if b.read > b.limit {
		// The n bytes already written to p must still be reported
		// alongside the error (io.Reader contract).
		return n, &http.MaxBytesError{Limit: b.limit}
	}
	return n, err
}

func (b *gzipBody) Close() error { return b.src.Close() }

// release hands the decompressor back for reuse unless the idle list
// is full. An idle decompressor holds no body.
func (b *gzipBody) release() {
	if b.d == nil {
		return
	}
	b.d.br.Reset(nil)
	select {
	case gzipReaders <- b.d:
	default:
	}
	b.d = nil
}

// gzipResponseWriter holds a response back until its body reaches
// gzipMinSize, then sends status and headers with Content-Encoding:
// gzip and compresses the body from there. A response that ends
// shorter goes out as identity when finish runs, with its status and
// headers unchanged. Either way it varies on Accept-Encoding.
type gzipResponseWriter struct {
	http.ResponseWriter
	status int    // the handler's status; 0 until it sets one or writes
	buf    []byte // the body held back, shorter than gzipMinSize
	zw     *gzip.Writer
}

// gzipResponses pools response writers with their held-back buffers.
var gzipResponses = sync.Pool{
	New: func() any { return &gzipResponseWriter{buf: make([]byte, 0, gzipMinSize)} },
}

func (w *gzipResponseWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *gzipResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.zw != nil {
		return w.zw.Write(p)
	}
	if len(w.buf)+len(p) < gzipMinSize {
		w.buf = append(w.buf, p...)
		return len(p), nil
	}
	h := w.Header()
	h.Del("Content-Length")
	h.Set("Content-Encoding", "gzip")
	h.Add("Vary", "Accept-Encoding")
	w.ResponseWriter.WriteHeader(w.status)
	w.zw = getGzipWriter(w.ResponseWriter)
	if _, err := w.zw.Write(w.buf); err != nil {
		return 0, err
	}
	return w.zw.Write(p)
}

// finish ends the response: it flushes the compressor, or sends the
// held-back body as identity.
func (w *gzipResponseWriter) finish() {
	if w.zw != nil {
		_ = w.zw.Close()
		putGzipWriter(w.zw)
		return
	}
	w.Header().Add("Vary", "Accept-Encoding")
	if w.status != 0 {
		w.ResponseWriter.WriteHeader(w.status)
	}
	if len(w.buf) > 0 {
		_, _ = w.ResponseWriter.Write(w.buf)
	}
}

// acceptsGzip reports whether the request advertises gzip response
// encoding. Content-coding tokens are case-insensitive, and a zero
// q-value in any RFC-valid spelling (q=0, q=0.0, ...) is a refusal.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, q, hasQ := strings.Cut(strings.TrimSpace(part), ";")
		if c := strings.ToLower(strings.TrimSpace(coding)); c != "gzip" && c != "*" {
			continue
		}
		if hasQ {
			if val, ok := strings.CutPrefix(strings.TrimSpace(q), "q="); ok {
				if f, err := strconv.ParseFloat(val, 64); err == nil && f == 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}
