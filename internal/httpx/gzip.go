package httpx

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// GzipMinSize is the smallest body worth compressing, in both
// directions: the SDK compresses request bodies from it, and the
// serving tiers compress answers from it. Below it a compressor costs
// more than the bytes it saves: resetting one clears hundreds of KB of
// tables, even for a 300-byte body.
const GzipMinSize = 1 << 10

// compressors holds idle compressors. A flate writer's state is about
// 800 KB. A sync.Pool drops its idle entries at every garbage
// collection, and under read load, with compressed bodies rare and
// collections frequent, rebuilding them made up half of all bytes a
// process allocated. Compression is CPU-bound, so one idle compressor
// per CPU is kept, and no more.
var compressors = make(chan *gzip.Writer, runtime.GOMAXPROCS(0))

// getCompressor returns an idle compressor, or a new one, writing to w.
func getCompressor(w io.Writer) *gzip.Writer {
	select {
	case zw := <-compressors:
		zw.Reset(w)
		return zw
	default:
		return gzip.NewWriter(w)
	}
}

// putCompressor keeps zw for reuse unless the idle list is full.
func putCompressor(zw *gzip.Writer) {
	select {
	case compressors <- zw:
	default:
	}
}

// Gzip compresses body at the default level through an idle
// compressor.
func Gzip(body []byte) (*bytes.Buffer, error) {
	buf := new(bytes.Buffer)
	zw := getCompressor(buf)
	_, err := zw.Write(body)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	putCompressor(zw)
	return buf, err
}

// Decompressor reads one gzip stream: a gzip reader with its 32 KB
// flate window, and the buffer it reads its source through (a gzip
// reader over a source without ReadByte allocates one per Reset). It
// is taken from a list of idle ones, and Close hands it back.
type Decompressor struct {
	br *bufio.Reader
	zr gzip.Reader
}

// decompressors holds idle decompressors. Decompression is CPU-bound,
// so one idle decompressor per CPU is kept, and no more.
var decompressors = make(chan *Decompressor, runtime.GOMAXPROCS(0))

// NewDecompressor reads the gzip header from src through an idle
// decompressor, or a new one. A stream whose header does not read is
// an error, and the decompressor goes back at once.
func NewDecompressor(src io.Reader) (*Decompressor, error) {
	var d *Decompressor
	select {
	case d = <-decompressors:
		d.br.Reset(src)
	default:
		d = &Decompressor{br: bufio.NewReader(src)}
	}
	if err := d.zr.Reset(d.br); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// Read implements io.Reader over the decompressed stream.
func (d *Decompressor) Read(p []byte) (int, error) { return d.zr.Read(p) }

// Close hands the decompressor back for reuse unless the idle list is
// full. An idle decompressor holds no source; d must not be used again.
func (d *Decompressor) Close() error {
	d.br.Reset(nil)
	select {
	case decompressors <- d:
	default:
	}
	return nil
}

// gzipBody lazily decompresses a request body. The decompressor is
// taken on first Read, so an empty or malformed stream surfaces as a
// decode error on the request, not at wrap time, and a handler that
// never reads the body takes none. The decompressed byte count is
// bounded by limit, so a gzip bomb gets the same *http.MaxBytesError
// as an oversized plain body. The decompressor goes back in release.
type gzipBody struct {
	src   io.ReadCloser
	d     *Decompressor // nil until the first Read, and again after release
	err   error         // a header that did not read, returned again on every Read
	limit int64
	read  int64
}

func (b *gzipBody) Read(p []byte) (int, error) {
	if b.d == nil && b.err == nil {
		if b.d, b.err = NewDecompressor(b.src); b.err != nil {
			b.err = fmt.Errorf("gzip request body: %w", b.err)
		}
	}
	if b.err != nil {
		return 0, b.err
	}
	n, err := b.d.Read(p)
	b.read += int64(n)
	if b.read > b.limit {
		// The n bytes already written to p must still be reported
		// alongside the error (io.Reader contract).
		return n, &http.MaxBytesError{Limit: b.limit}
	}
	return n, err
}

func (b *gzipBody) Close() error { return b.src.Close() }

// release hands the decompressor back for reuse.
func (b *gzipBody) release() {
	if b.d != nil {
		b.d.Close()
		b.d = nil
	}
}

// gzipResponseWriter holds a response back until its body reaches
// GzipMinSize, then sends status and headers with Content-Encoding:
// gzip and compresses the body from there. A response that ends
// shorter goes out as identity when finish runs, with its status and
// headers unchanged. Either way it varies on Accept-Encoding.
type gzipResponseWriter struct {
	http.ResponseWriter
	status int    // the handler's status; 0 until it sets one or writes
	buf    []byte // the body held back, shorter than GzipMinSize
	zw     *gzip.Writer
}

// gzipResponses pools response writers with their held-back buffers.
var gzipResponses = sync.Pool{
	New: func() any { return &gzipResponseWriter{buf: make([]byte, 0, GzipMinSize)} },
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
	if len(w.buf)+len(p) < GzipMinSize {
		w.buf = append(w.buf, p...)
		return len(p), nil
	}
	h := w.Header()
	h.Del("Content-Length")
	h.Set("Content-Encoding", "gzip")
	h.Add("Vary", "Accept-Encoding")
	w.ResponseWriter.WriteHeader(w.status)
	w.zw = getCompressor(w.ResponseWriter)
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
		putCompressor(w.zw)
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
