package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"hcoc/internal/httpx"
)

// Default transport tuning. Every knob has an Option.
const (
	// DefaultMaxRetries is how many times a retryable request (429
	// without a budget refusal, 503, transport error) is retried after
	// its first attempt.
	DefaultMaxRetries = 4
	// DefaultBackoff is the first retry delay; it doubles per attempt.
	DefaultBackoff = 100 * time.Millisecond
	// DefaultMaxBackoff caps the growing retry delay.
	DefaultMaxBackoff = 5 * time.Second
)

// Client is a typed HTTP client for an hcoc-serve daemon. It covers
// every /v1 endpoint, retries backpressure responses with exponential
// backoff (honoring Retry-After), compresses large request bodies, and
// threads a context through every call. The zero value is not usable;
// construct with New. A Client is safe for concurrent use.
type Client struct {
	base       *url.URL
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
	maxBackoff time.Duration
	noGzip     bool
	userAgent  string
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (for custom
// transports, timeouts, or test doubles). The default is a dedicated
// client with a 5-minute overall timeout — releases can run long.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries bounds retries per request after the first attempt;
// 0 disables retrying entirely.
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithBackoff sets the initial and maximum retry delay. The delay
// doubles per attempt from initial up to max; a server Retry-After
// overrides the computed delay.
func WithBackoff(initial, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxBackoff = initial, max }
}

// WithoutRequestCompression disables gzip-compressing large request
// bodies (the response side is negotiated by the transport regardless).
func WithoutRequestCompression() Option { return func(c *Client) { c.noGzip = true } }

// WithUserAgent sets the User-Agent header sent with every request.
func WithUserAgent(ua string) Option { return func(c *Client) { c.userAgent = ua } }

// New creates a client for the daemon at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	c := &Client{
		base:       u,
		hc:         &http.Client{Timeout: 5 * time.Minute},
		maxRetries: DefaultMaxRetries,
		backoff:    DefaultBackoff,
		maxBackoff: DefaultMaxBackoff,
		userAgent:  "hcoc-client/1",
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// APIError is a non-2xx daemon response that is not a budget or
// version-conflict refusal: the HTTP status plus the server's error
// message and machine-readable code.
type APIError struct {
	// StatusCode is the HTTP status of the refusing response.
	StatusCode int
	// Code is the server's machine-readable error code ("bad_request",
	// "not_found", "rate_limited", ...). Empty against pre-code daemons.
	Code string
	// Message is the server's error text.
	Message string
	// RetryAfter is the server-suggested retry delay, when one was sent.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.StatusCode, e.Message)
}

// Temporary reports whether retrying the same request may succeed
// (backpressure statuses: 429, 503). The client's own retry loop uses
// the same predicate.
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusServiceUnavailable
}

// BudgetError is the daemon's 429 refusal of a release that would
// exceed its hierarchy's privacy budget. It is terminal, never retried:
// the budget does not replenish by waiting.
type BudgetError struct {
	// Hierarchy is the id whose budget is exhausted.
	Hierarchy string
	// Code distinguishes the per-version bound ("budget") from the
	// cross-version continual-observation bound ("continual_budget").
	// Empty against pre-code daemons.
	Code string
	// RequestedEpsilon is what the refused release asked for.
	RequestedEpsilon float64
	// RemainingEpsilon is what the hierarchy can still afford.
	RemainingEpsilon float64
	// MaxEpsilonPerHierarchy is the daemon's configured bound.
	MaxEpsilonPerHierarchy float64
	// Message is the server's error text.
	Message string
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("client: privacy budget refused: %s (remaining %g of %g)",
		e.Message, e.RemainingEpsilon, e.MaxEpsilonPerHierarchy)
}

// VersionConflictError is the daemon's 409 refusal of a conditional
// event append: the If-Match fingerprint was no longer the head — a
// concurrent writer won. Re-read the head (the error carries it),
// rebase the delta, and retry explicitly; the client never retries a
// conflict on its own.
type VersionConflictError struct {
	// Hierarchy is the log the append targeted.
	Hierarchy string
	// HeadVersion and HeadFingerprint identify the current head to
	// rebase onto.
	HeadVersion     int64
	HeadFingerprint string
	// Given is the stale fingerprint the caller sent.
	Given string
	// Message is the server's error text.
	Message string
}

// Error implements error.
func (e *VersionConflictError) Error() string {
	return fmt.Sprintf("client: version conflict on %s: head is version %d (%s), not %s",
		e.Hierarchy, e.HeadVersion, e.HeadFingerprint, e.Given)
}

// transportError marks a failure below the HTTP layer (dial, TLS,
// connection reset) — the class where a fresh attempt can genuinely
// succeed. Deterministic failures (a 2xx body that does not decode, a
// malformed artifact) deliberately do not get this wrapper and are
// never retried.
type transportError struct{ err error }

// Error implements error.
func (e *transportError) Error() string { return e.err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *transportError) Unwrap() error { return e.err }

// retryable reports whether another attempt may help: transport errors
// and backpressure statuses, but never context ends, budget refusals,
// deterministic decode failures, or client/server bugs (4xx/5xx
// otherwise).
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var be *BudgetError
	if errors.As(err, &be) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Temporary()
	}
	var te *transportError
	return errors.As(err, &te)
}

// do runs one API call with retries: method+path against the base URL,
// an optional JSON body, an optional JSON out. Bodies are marshaled
// once and replayed per attempt.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doHeaders(ctx, method, path, in, out, nil)
}

// doHeaders is do with extra request headers (If-Match preconditions).
func (c *Client) doHeaders(ctx context.Context, method, path string, in, out any, hdr map[string]string) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	return c.attempt(ctx, func() error {
		return c.once(ctx, method, path, body, out, hdr)
	})
}

// attempt drives one request through the retry loop: run once, back
// off on retryable failures (interruptible by the context), give up on
// terminal ones or when the retry budget is spent.
func (c *Client) attempt(ctx context.Context, once func() error) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := once()
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) || attempt >= c.maxRetries {
			return lastErr
		}
		timer := time.NewTimer(c.delay(attempt, err))
		select {
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("client: %w while backing off (last error: %v)", ctx.Err(), lastErr)
		case <-timer.C:
		}
	}
}

// delay computes the wait before retry number attempt+1: exponential
// from the configured base, overridden by a server Retry-After. Both
// are capped at the configured maximum — a misbehaving server must not
// be able to stall a caller for an arbitrary Retry-After.
func (c *Client) delay(attempt int, err error) time.Duration {
	d := c.backoff << attempt
	if d > c.maxBackoff || d <= 0 { // <= 0: shift overflow
		d = c.maxBackoff
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		d = ae.RetryAfter
		if d > c.maxBackoff {
			d = c.maxBackoff
		}
	}
	return d
}

// once is a single request/response cycle. path is joined to the base
// URL verbatim, so callers control its escaping. A body of at least
// httpx.GzipMinSize bytes goes out gzipped (hierarchy uploads are
// highly repetitive JSON and typically shrink 10-20x). A 2xx answer's
// body goes to out: handed to it when out is a func(io.Reader) error,
// decoded into it as JSON otherwise, and drained when out is nil.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any, hdr map[string]string) error {
	var rd io.Reader
	gzipped := false
	if body != nil {
		if !c.noGzip && len(body) >= httpx.GzipMinSize {
			if zb, err := httpx.Gzip(body); err == nil {
				rd, gzipped = zb, true
			}
		}
		if !gzipped {
			rd = bytes.NewReader(body)
		}
	}
	resp, err := c.send(ctx, method, path, rd, func(h http.Header) {
		if body != nil {
			h.Set("Content-Type", "application/json")
			if gzipped {
				h.Set("Content-Encoding", "gzip")
			}
		}
		// Asking for gzip here, as the transport would, keeps the
		// transport from decompressing: readBody does it with a reused
		// decompressor.
		h.Set("Accept-Encoding", "gzip")
		for k, v := range hdr {
			h.Set(k, v)
		}
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return c.responseError(resp)
	}
	if out == nil {
		_, _ = io.CopyN(io.Discard, resp.Body, drainLimit)
		return nil
	}
	read, ok := out.(func(io.Reader) error)
	if !ok {
		read = func(body io.Reader) error {
			if err := json.NewDecoder(body).Decode(out); err != nil {
				return fmt.Errorf("client: decoding response: %w", err)
			}
			return nil
		}
	}
	return readBody(resp, read)
}

// drainLimit bounds what readBody reads past the part of a body it
// used, so that the connection can carry the next request; a longer
// remainder costs less to drop with the connection.
const drainLimit = 64 << 10

// readBody calls read with resp's body, decompressed through a reused
// decompressor when the answer is Content-Encoding: gzip, then reads
// the rest of the body.
func readBody(resp *http.Response, read func(io.Reader) error) error {
	var err error
	if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		var d *httpx.Decompressor
		if d, err = httpx.NewDecompressor(resp.Body); err == nil {
			err = read(d)
			d.Close()
		} else {
			err = fmt.Errorf("client: decompressing response: %w", err)
		}
	} else {
		err = read(resp.Body)
	}
	_, _ = io.CopyN(io.Discard, resp.Body, drainLimit)
	return err
}

// Do sends one request to the daemon and returns its answer unread.
// target is a path with its raw query, joined to the base URL
// verbatim; method, header and body go out as given, through the
// configured HTTP client under ctx. Do makes exactly one attempt and
// neither compresses the body nor decodes the answer, so every HTTP
// status is a response and only a failure below HTTP is an error. A
// header without Accept-Encoding asks for identity, which keeps the
// transport from decoding the answer: the body is always the bytes the
// daemon sent. User-Agent defaults to the client's. The caller closes
// the body. The gateway tier forwards requests with Do.
func (c *Client) Do(ctx context.Context, method, target string, header http.Header, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	return c.send(ctx, method, target, rd, func(h http.Header) {
		for k, vs := range header {
			h[k] = vs
		}
		if h.Get("Accept-Encoding") == "" {
			h.Set("Accept-Encoding", "identity")
		}
	})
}

// send makes one attempt at a request: target is joined to the base
// URL verbatim, setHeader fills the header, and the client's
// User-Agent goes out unless setHeader named one. A context end is
// reported as itself, so callers (and the retry predicate) see
// context.Canceled or DeadlineExceeded; any other failure below HTTP
// is a transportError.
func (c *Client) send(ctx context.Context, method, target string, body io.Reader, setHeader func(http.Header)) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(c.base.String(), "/")+target, body)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	setHeader(req.Header)
	if req.Header.Get("User-Agent") == "" {
		req.Header.Set("User-Agent", c.userAgent)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("client: %w", ctxErr)
		}
		return nil, fmt.Errorf("client: %s %s: %w", method, target, &transportError{err})
	}
	return resp, nil
}

// responseError converts a non-2xx response into the matching typed
// error: *BudgetError for a budget refusal, *VersionConflictError for a
// failed If-Match append, *APIError otherwise. The server's
// machine-readable code drives the mapping when present; the legacy
// shape heuristics (a 429 carrying budget fields) keep working against
// pre-code daemons.
func (c *Client) responseError(resp *http.Response) error {
	// A body that cannot be read or decompressed still leaves the
	// status, and whatever text was read, to report.
	var raw []byte
	_ = readBody(resp, func(body io.Reader) error {
		raw, _ = io.ReadAll(io.LimitReader(body, 1<<20))
		return nil
	})
	var body struct {
		Error                  string  `json:"error"`
		Code                   string  `json:"code"`
		Hierarchy              string  `json:"hierarchy"`
		RequestedEpsilon       float64 `json:"requested_epsilon"`
		RemainingEpsilon       float64 `json:"remaining_epsilon"`
		MaxEpsilonPerHierarchy float64 `json:"max_epsilon_per_hierarchy"`
		HeadVersion            int64   `json:"head_version"`
		HeadFingerprint        string  `json:"head_fingerprint"`
		Given                  string  `json:"given"`
	}
	message := strings.TrimSpace(string(raw))
	if err := json.Unmarshal(raw, &body); err == nil && body.Error != "" {
		message = body.Error
		switch {
		case body.Code == "budget" || body.Code == "continual_budget",
			body.Code == "" && resp.StatusCode == http.StatusTooManyRequests &&
				body.Hierarchy != "" && body.MaxEpsilonPerHierarchy > 0:
			return &BudgetError{
				Hierarchy:              body.Hierarchy,
				Code:                   body.Code,
				RequestedEpsilon:       body.RequestedEpsilon,
				RemainingEpsilon:       body.RemainingEpsilon,
				MaxEpsilonPerHierarchy: body.MaxEpsilonPerHierarchy,
				Message:                body.Error,
			}
		case body.Code == "version_conflict" && resp.StatusCode == http.StatusConflict:
			return &VersionConflictError{
				Hierarchy:       body.Hierarchy,
				HeadVersion:     body.HeadVersion,
				HeadFingerprint: body.HeadFingerprint,
				Given:           body.Given,
				Message:         body.Error,
			}
		}
	}
	return &APIError{
		StatusCode: resp.StatusCode,
		Code:       body.Code,
		Message:    message,
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
}

// parseRetryAfter reads the delay-seconds form of Retry-After; the
// HTTP-date form (rare from APIs) falls back to zero, i.e. the client's
// own backoff.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}
