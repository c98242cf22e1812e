package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hcoc/client"
	"hcoc/internal/cluster"
	"hcoc/internal/httpx"
)

// hopHeaders are the hop-by-hop fields of RFC 9110 §7.6.1, with the
// legacy Keep-Alive and Proxy-Connection: they describe one connection,
// so the gateway neither forwards nor relays them. Every other field is
// end-to-end and crosses verbatim.
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Connection", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// copyEndToEnd adds src's end-to-end fields to dst: all but the
// hop-by-hop ones and any that src's Connection field names.
func copyEndToEnd(dst, src http.Header) {
	for k, vs := range src {
		dst[k] = vs
	}
	for _, f := range src["Connection"] {
		for _, name := range strings.Split(f, ",") {
			dst.Del(strings.TrimSpace(name))
		}
	}
	for _, k := range hopHeaders {
		delete(dst, k)
	}
}

// endToEnd returns the end-to-end fields of a request header.
func endToEnd(h http.Header) http.Header {
	out := make(http.Header, len(h))
	copyEndToEnd(out, h)
	return out
}

// settles reports whether a backend's status ends the failover walk. A
// 404 (a replica missing data) and a 5xx (a broken or overloaded
// replica) move on to the next backend; anything else — 2xx, 206, 304
// and every other 4xx — is the answer, and would be the same anywhere.
func settles(status int) bool { return status != http.StatusNotFound && status < 500 }

// attempt sends r, with hdr and body, to backend u in one try and books
// the outcome: its traffic counters and its health. Only a failure
// below HTTP or a 5xx other than 503 counts against the backend; a 503
// is backpressure, any answer below 500 shows the backend is up, and a
// request the caller abandoned says nothing about it. Latency runs to
// the status line.
func (g *Gateway) attempt(c *client.Client, u string, r *http.Request, hdr http.Header, body []byte) (*http.Response, error) {
	start := time.Now()
	resp, err := c.Do(r.Context(), r.Method, r.URL.RequestURI(), hdr, body)
	d := time.Since(start)
	status := 0
	if err == nil {
		status = resp.StatusCode
	}
	g.mu.Lock()
	if st := g.stats[u]; st != nil {
		st.requests++
		st.latency += d
		if err != nil || status >= 400 {
			st.errors++
		}
	}
	g.mu.Unlock()
	switch {
	case err != nil:
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			g.cluster.ReportFailure(u, err)
		}
	case status >= 500:
		if status != http.StatusServiceUnavailable {
			g.cluster.ReportFailure(u, fmt.Errorf("backend answered %d", status))
		}
	default:
		g.cluster.ReportSuccess(u)
	}
	return resp, err
}

// forward sends r, with body, down order, one attempt per backend, and
// relays the first answer that settles the request. A 404, a 5xx or a
// transport error moves on to the next backend before any byte is
// relayed. When no backend settles the request, the last answer any of
// them gave is relayed; with none at all the gateway answers 502 (503
// when there was no backend to try). inspect, when set, sees the
// settling answer before it is relayed. forward returns the relayed
// status and header: zero and nil when the gateway answered itself.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, order []string, body []byte, inspect func(backend string, resp *http.Response)) (int, http.Header) {
	hdr := endToEnd(r.Header)
	var last *http.Response
	var lastErr error
	for i, u := range order {
		c := g.client(u)
		if c == nil {
			continue
		}
		if i > 0 {
			g.mu.Lock()
			g.failovers++
			g.mu.Unlock()
		}
		resp, err := g.attempt(c, u, r, hdr, body)
		if err != nil {
			if r.Context().Err() != nil {
				return 0, nil // the caller hung up
			}
			lastErr = err
			continue
		}
		if settles(resp.StatusCode) {
			if inspect != nil {
				inspect(u, resp)
			}
			relay(w, resp)
			return resp.StatusCode, resp.Header
		}
		if _, err := buffer(resp); err != nil {
			lastErr = err
			continue
		}
		last = resp
	}
	if last == nil {
		unanswered(w, lastErr)
		return 0, nil
	}
	relay(w, last)
	return last.StatusCode, last.Header
}

// attemptAll sends r, with hdr and body, to every backend in parallel,
// one attempt each, and buffers every answer. answers[i] is nil when
// backends[i] gave none, and errs[i] then says why.
func (g *Gateway) attemptAll(r *http.Request, backends []string, hdr http.Header, body []byte) (answers []*http.Response, errs []error) {
	answers, errs = make([]*http.Response, len(backends)), make([]error, len(backends))
	var wg sync.WaitGroup
	for i, u := range backends {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			c := g.client(u)
			if c == nil {
				errs[i] = fmt.Errorf("backend %s left the cluster", u)
				return
			}
			resp, err := g.attempt(c, u, r, hdr, body)
			if err == nil {
				_, err = buffer(resp)
			}
			if err != nil {
				errs[i] = err
				return
			}
			answers[i] = resp
		}(i, u)
	}
	wg.Wait()
	return answers, errs
}

// fanOut sends r, with body, to every owner in parallel and relays one
// answer: the first success in owner order, else the first answer that
// settles the request (an authoritative refusal such as a 409 conflict
// names what the caller can fix), else the last answer any owner gave.
func (g *Gateway) fanOut(w http.ResponseWriter, r *http.Request, owners []string, body []byte) {
	g.mu.Lock()
	g.fanouts++
	g.mu.Unlock()
	answers, errs := g.attemptAll(r, owners, endToEnd(r.Header), body)
	if i := choose(answers); i >= 0 {
		relay(w, answers[i])
		return
	}
	unanswered(w, lastError(errs))
}

// choose picks the answer a parallel request relays: the first success,
// else the first answer that settles the request, else the last
// answer; -1 when no backend answered.
func choose(answers []*http.Response) int {
	settled := -1
	for i, a := range answers {
		switch {
		case a == nil:
		case a.StatusCode/100 == 2:
			return i
		case settled < 0 && settles(a.StatusCode):
			settled = i
		}
	}
	if settled >= 0 {
		return settled
	}
	return lastAnswer(answers)
}

// lastAnswer is the index of the last answer a parallel request got;
// -1 when no backend answered.
func lastAnswer(answers []*http.Response) int {
	for i := len(answers) - 1; i >= 0; i-- {
		if answers[i] != nil {
			return i
		}
	}
	return -1
}

// listEntry holds the dedup key of one listing element: a hierarchy's
// id or a release artifact's id.
type listEntry struct {
	ID      string `json:"id"`
	Release string `json:"release"`
}

// scatter sends r, path and query as given, to every live backend in
// parallel and answers with the union of the JSON arrays of the 2xx
// answers: each element verbatim, deduplicated and sorted by the id key
// reads from it. With no 2xx answer it relays the last answer verbatim.
func (g *Gateway) scatter(w http.ResponseWriter, r *http.Request, key func(listEntry) string) {
	backends := g.cluster.Live()
	if len(backends) == 0 {
		unanswered(w, nil)
		return
	}
	hdr := endToEnd(r.Header)
	hdr.Del("Accept-Encoding") // the gateway reads these answers itself
	answers, errs := g.attemptAll(r, backends, hdr, nil)
	merged := make(map[string]json.RawMessage)
	answered := false
	for _, a := range answers {
		var elems []json.RawMessage
		if a == nil || a.StatusCode/100 != 2 || json.NewDecoder(a.Body).Decode(&elems) != nil {
			continue
		}
		answered = true
		for _, e := range elems {
			var le listEntry
			if json.Unmarshal(e, &le) != nil {
				continue
			}
			if k := key(le); merged[k] == nil {
				merged[k] = e
			}
		}
	}
	if !answered {
		if i := lastAnswer(answers); i >= 0 {
			relay(w, answers[i])
		} else {
			unanswered(w, lastError(errs))
		}
		return
	}
	ids := make([]string, 0, len(merged))
	for id := range merged {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]json.RawMessage, len(ids))
	for i, id := range ids {
		out[i] = merged[id]
	}
	w, finish := httpx.CompressResponse(w, r)
	defer finish()
	httpx.WriteJSON(w, http.StatusOK, out)
}

// relayBufs pools relay's copy buffers. Copying into the
// ResponseWriter with io.Copy would hand a body with a Content-Length
// to the connection's ReadFrom, which allocates a fresh 32 KB buffer
// for every source that is not a file.
var relayBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// relay copies a backend's answer to the client verbatim: status,
// end-to-end headers and body, in the encoding the backend chose.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyEndToEnd(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	buf := relayBufs.Get().(*[]byte)
	defer relayBufs.Put(buf)
	_, _ = io.CopyBuffer(struct{ io.Writer }{w}, resp.Body, *buf)
}

// buffer reads an answer's body whole and closes it, leaving the bytes
// in place so the answer can still be relayed unchanged.
func buffer(resp *http.Response) ([]byte, error) {
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return raw, err
}

// peek decodes a small JSON answer into v without consuming it: the
// body is buffered, gunzipped for decoding when the backend gzipped it,
// and relayed as it came.
func peek(resp *http.Response, v any) error {
	raw, err := buffer(resp)
	if err != nil {
		return err
	}
	var rd io.Reader = bytes.NewReader(raw)
	if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		d, err := httpx.NewDecompressor(rd)
		if err != nil {
			return err
		}
		defer d.Close()
		rd = d
	}
	return json.NewDecoder(rd).Decode(v)
}

// unanswered is the gateway's own reply when no backend answered: 503
// when there was no backend to try, else 502 naming the last failure.
func unanswered(w http.ResponseWriter, err error) {
	if err == nil {
		httpx.WriteError(w, http.StatusServiceUnavailable, "%v", cluster.ErrNoBackends)
		return
	}
	httpx.WriteError(w, http.StatusBadGateway, "no replica could serve the request: %v", err)
}

// lastError is the last non-nil error of a parallel request.
func lastError(errs []error) error {
	for i := len(errs) - 1; i >= 0; i-- {
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// bufferBody reads the bounded request body whole, so the gateway can
// decode a routing key from it and replay it to each backend it tries.
func bufferBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(r.Body)
	if err == nil {
		return body, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpx.WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", tooLarge.Limit)
	} else {
		httpx.WriteError(w, http.StatusBadRequest, "reading request: %v", err)
	}
	return nil, false
}
