package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hcoc/internal/store"
	"hcoc/perfbench/loadgen"
)

// Trace link headers: the operation a request belongs to and the
// attempt span that sent it.
const (
	headerOp     = "Perfbench-Op"
	headerParent = "Perfbench-Parent"
)

// traceKey is the context key under which a traceCtx travels.
type traceKey struct{}

// traceCtx links an outgoing SDK request to the span sending it: an
// operation's client span, or a gateway handler span when the gateway's
// backend clients send it.
type traceCtx struct {
	op, parent int64
	gateway    bool
}

// blobOp indexes the BlobStore calls the tracer times.
type blobOp int

const (
	opPut blobOp = iota
	opGet
	opStat
	opList
	opAppend
	opManifestRead
	nBlobOps
)

// blobOpNames names each blobOp in metric names.
var blobOpNames = [nBlobOps]string{"put", "get", "stat", "list", "append", "manifest_read"}

// tracer records the spans and boundary counters of one traced stack.
// It times only boundaries the benchmark builds itself: the SDK
// transports, the serve and gateway handlers, the BlobStore handed to
// the store, and the s3stub handler.
type tracer struct {
	clock loadgen.Clock
	spans loadgen.Spans

	attempts, gwAttempts atomic.Int64 // HTTP attempts by the generator and by the gateway
	gwFetched, wire      atomic.Int64 // bytes the gateway read from backends; bytes on generator connections
	blobN, blobNS        [nBlobOps]atomic.Int64
	written              atomic.Int64 // bytes put and appended
	stubN, stubNS        atomic.Int64

	mu     sync.Mutex
	events [][2]int64 // start and end of every event-log blob write
}

// traceCounters is a point-in-time copy of a tracer's counters.
type traceCounters struct {
	attempts, gwAttempts, gwFetched, wire int64
	blobN, blobNS                         [nBlobOps]int64
	written, stubN, stubNS                int64
}

func (t *tracer) counters() traceCounters {
	c := traceCounters{
		attempts: t.attempts.Load(), gwAttempts: t.gwAttempts.Load(),
		gwFetched: t.gwFetched.Load(), wire: t.wire.Load(),
		written: t.written.Load(), stubN: t.stubN.Load(), stubNS: t.stubNS.Load(),
	}
	for i := range c.blobN {
		c.blobN[i], c.blobNS[i] = t.blobN[i].Load(), t.blobNS[i].Load()
	}
	return c
}

// reset starts a phase: the spans and event-log writes of set-up are
// dropped, while counters are differenced across the phase instead.
func (t *tracer) reset() {
	t.spans.Reset()
	t.mu.Lock()
	t.events = nil
	t.mu.Unlock()
}

func (t *tracer) eventWrites() [][2]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][2]int64(nil), t.events...)
}

// transport wraps an SDK transport: a request carrying a traceCtx gets
// an attempt span and the headers that link the handler it reaches.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return &tracedTransport{base: base, t: t}
}

type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tc, ok := req.Context().Value(traceKey{}).(traceCtx)
	if !ok {
		return tt.base.RoundTrip(req)
	}
	t := tt.t
	if tc.gateway {
		t.gwAttempts.Add(1)
	} else {
		t.attempts.Add(1)
	}
	sp := loadgen.Span{ID: t.spans.NewID(), Parent: tc.parent, Op: tc.op, Layer: loadgen.LayerAttempt, Name: req.Method, Start: t.clock.Now()}
	out := req.Clone(req.Context())
	out.Header.Set(headerOp, strconv.FormatInt(tc.op, 10))
	out.Header.Set(headerParent, strconv.FormatInt(sp.ID, 10))
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		sp.End = t.clock.Now()
		t.spans.Add(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, span: sp, fetch: tc.gateway}
	return resp, nil
}

// spanBody ends an attempt span when its response body is closed, and
// counts the bytes a gateway fetched.
type spanBody struct {
	io.ReadCloser
	t     *tracer
	span  loadgen.Span
	fetch bool
	once  sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.fetch {
		b.t.gwFetched.Add(int64(n))
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.span.End = b.t.clock.Now()
		b.t.spans.Add(b.span)
	})
	return err
}

// handler records a span for every request h serves, linked by the
// trace headers to the attempt that sent it. A gateway's span rides in
// the request context to the gateway's backend clients.
func (t *tracer) handler(layer loadgen.Layer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A missing header parses as 0, no link: set-up traffic, whose
		// spans the phase reset drops.
		op, _ := strconv.ParseInt(r.Header.Get(headerOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(headerParent), 10, 64)
		sp := loadgen.Span{ID: t.spans.NewID(), Parent: parent, Op: op, Layer: layer, Name: routeName(r), Start: t.clock.Now()}
		if layer == loadgen.LayerGateway {
			r = r.WithContext(context.WithValue(r.Context(), traceKey{}, traceCtx{op: op, parent: sp.ID, gateway: true}))
		}
		h.ServeHTTP(w, r)
		sp.End = t.clock.Now()
		t.spans.Add(sp)
	})
}

// routeName classifies a request by the route that serves it.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/release" && r.Method == http.MethodPost:
		return "release"
	case p == "/v1/query/batch":
		return "batch"
	case strings.HasPrefix(p, "/v1/query/"):
		return "query"
	case strings.HasPrefix(p, "/v1/release/"):
		return "download"
	case strings.HasSuffix(p, "/events"):
		return "events"
	default:
		return "other"
	}
}

// stubHandler times the s3stub handler. Its requests cannot name the
// operation they serve, so only counts and time are kept.
func (t *tracer) stubHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.clock.Now()
		h.ServeHTTP(w, r)
		t.stubN.Add(1)
		t.stubNS.Add(t.clock.Now() - start)
	})
}

// dial opens a generator connection that counts the bytes it moves.
func (t *tracer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &t.wire}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// blob wraps the BlobStore a traced store is opened over.
func (t *tracer) blob(b store.BlobStore) store.BlobStore { return &timedBlob{BlobStore: b, t: t} }

// blobDone books one BlobStore call; event marks an event-log write,
// kept as an interval so its events handler can be charged for it.
func (t *tracer) blobDone(op blobOp, start int64, event bool) {
	end := t.clock.Now()
	t.blobN[op].Add(1)
	t.blobNS[op].Add(end - start)
	if event {
		t.mu.Lock()
		t.events = append(t.events, [2]int64{start, end})
		t.mu.Unlock()
	}
}

// timedBlob times the calls a store makes into its BlobStore; reading a
// returned object or manifest counts toward the call that opened it.
type timedBlob struct {
	store.BlobStore
	t *tracer
}

func (b *timedBlob) Put(key string, data []byte) error {
	start := b.t.clock.Now()
	err := b.BlobStore.Put(key, data)
	b.t.blobDone(opPut, start, strings.HasPrefix(key, "events/"))
	b.t.written.Add(int64(len(data)))
	return err
}

func (b *timedBlob) Get(key string) (io.ReadSeekCloser, store.BlobInfo, error) {
	start := b.t.clock.Now()
	r, info, err := b.BlobStore.Get(key)
	b.t.blobDone(opGet, start, false)
	if err != nil {
		return nil, info, err
	}
	return &timedObject{timedReader: timedReader{ReadCloser: r, t: b.t, op: opGet}, s: r}, info, nil
}

func (b *timedBlob) Stat(key string) (store.BlobInfo, error) {
	start := b.t.clock.Now()
	info, err := b.BlobStore.Stat(key)
	b.t.blobDone(opStat, start, false)
	return info, err
}

func (b *timedBlob) List(prefix string) ([]store.BlobInfo, error) {
	start := b.t.clock.Now()
	infos, err := b.BlobStore.List(prefix)
	b.t.blobDone(opList, start, false)
	return infos, err
}

func (b *timedBlob) AppendManifest(line []byte) error {
	start := b.t.clock.Now()
	err := b.BlobStore.AppendManifest(line)
	b.t.blobDone(opAppend, start, bytes.Contains(line, []byte(`"kind":"event"`)))
	b.t.written.Add(int64(len(line)))
	return err
}

func (b *timedBlob) ManifestReader() (io.ReadCloser, error) {
	start := b.t.clock.Now()
	r, err := b.BlobStore.ManifestReader()
	b.t.blobDone(opManifestRead, start, false)
	if err != nil {
		return nil, err
	}
	return &timedReader{ReadCloser: r, t: b.t, op: opManifestRead}, nil
}

// timedReader adds the time spent reading an opened blob to the call
// that opened it.
type timedReader struct {
	io.ReadCloser
	t  *tracer
	op blobOp
}

func (r *timedReader) Read(p []byte) (int, error) {
	start := r.t.clock.Now()
	n, err := r.ReadCloser.Read(p)
	r.t.blobNS[r.op].Add(r.t.clock.Now() - start)
	return n, err
}

// timedObject is a timedReader over an object that also seeks, as
// http.ServeContent needs.
type timedObject struct {
	timedReader
	s io.Seeker
}

func (o *timedObject) Seek(offset int64, whence int) (int64, error) { return o.s.Seek(offset, whence) }
