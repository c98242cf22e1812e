package store

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// S3Options configures an S3-compatible blob backend.
type S3Options struct {
	// Endpoint is the service base URL (e.g. "http://localhost:9000" or
	// "https://s3.us-west-2.amazonaws.com"). Requests use path-style
	// addressing: <endpoint>/<bucket>/<key>.
	Endpoint string
	// Bucket is the bucket name. It must already exist.
	Bucket string
	// Prefix is an optional key prefix ("hcoc/prod"), letting several
	// stores share one bucket.
	Prefix string
	// Region is the SigV4 signing region (default "us-east-1").
	Region string
	// AccessKey and SecretKey are the signing credentials; when empty
	// they fall back to AWS_ACCESS_KEY_ID / AWS_SECRET_ACCESS_KEY.
	AccessKey string
	SecretKey string
	// Client is the HTTP client (default: 30s-timeout client).
	Client *http.Client
	// ListPageSize bounds keys per ListObjectsV2 page (default 1000);
	// tests shrink it to exercise pagination.
	ListPageSize int
}

// S3 is an S3-compatible BlobStore: objects go to
// <endpoint>/<bucket>/<prefix>/<key> with hand-rolled SigV4 signing
// (no SDK dependency). Since object stores cannot append, the manifest
// log is a sequence of chunk objects manifest/<seq>-<nonce>.jsonl,
// replayed in key order — the sequence number is a zero-padded
// nanosecond timestamp, so lexicographic order is append order.
//
// An S3 backend reports Shared: several processes may write the same
// bucket. On an index miss Store HEADs the key's artifact, and a 404
// ends the miss there; only an artifact another process has put makes
// it re-read the manifest. To keep those re-reads cheap, the handle
// keeps the bytes of every complete manifest chunk it has written or
// fetched, so a re-read costs one LIST per page of chunks plus one GET
// per chunk it has never seen.
type S3 struct {
	opts   S3Options
	base   string // endpoint/bucket, no trailing slash
	client *http.Client
	seq    atomic.Int64 // monotonic guard for manifest chunk names

	chunksMu sync.Mutex
	chunks   map[string]manifestChunk // complete manifest chunks by key
}

// manifestChunk is the body of one complete (newline-terminated)
// manifest chunk and the ETag it was written or fetched with. A cached
// chunk is reused only while a listing shows the same ETag and size.
type manifestChunk struct {
	etag string
	data []byte
}

// NewS3 validates options and constructs the backend. It performs no
// network I/O: the first operation surfaces connectivity errors.
func NewS3(opts S3Options) (*S3, error) {
	if opts.Endpoint == "" {
		return nil, fmt.Errorf("store: s3 endpoint is required")
	}
	if opts.Bucket == "" {
		return nil, fmt.Errorf("store: s3 bucket is required")
	}
	u, err := url.Parse(opts.Endpoint)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("store: s3 endpoint %q is not an absolute URL", opts.Endpoint)
	}
	if opts.Region == "" {
		opts.Region = "us-east-1"
	}
	if opts.AccessKey == "" {
		opts.AccessKey = os.Getenv("AWS_ACCESS_KEY_ID")
	}
	if opts.SecretKey == "" {
		opts.SecretKey = os.Getenv("AWS_SECRET_ACCESS_KEY")
	}
	if opts.ListPageSize <= 0 {
		opts.ListPageSize = 1000
	}
	opts.Prefix = strings.Trim(opts.Prefix, "/")
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &S3{
		opts:   opts,
		base:   strings.TrimSuffix(opts.Endpoint, "/") + "/" + opts.Bucket,
		client: client,
		chunks: make(map[string]manifestChunk),
	}, nil
}

// Name implements BlobStore.
func (s *S3) Name() string { return "s3" }

// Shared implements BlobStore: a bucket is fleet-shared by design.
func (s *S3) Shared() bool { return true }

// objectKey prepends the configured prefix.
func (s *S3) objectKey(key string) string {
	if s.opts.Prefix == "" {
		return key
	}
	return s.opts.Prefix + "/" + key
}

// urlFor builds the path-style object URL, escaping each key segment.
func (s *S3) urlFor(key string) string {
	segs := strings.Split(s.objectKey(key), "/")
	for i, seg := range segs {
		segs[i] = url.PathEscape(seg)
	}
	return s.base + "/" + strings.Join(segs, "/")
}

// do signs and sends one request, retrying transient transport errors
// once. body may be nil.
func (s *S3) do(method, rawurl string, body []byte, hdr http.Header) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		req, err := http.NewRequest(method, rawurl, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		for k, vs := range hdr {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		s.sign(req, body)
		resp, err := s.client.Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("store: s3 %s %s: %w", method, rawurl, lastErr)
}

// Put implements BlobStore; S3 PUTs are atomic by contract (a GET sees
// the old object or the complete new one, never a partial write).
func (s *S3) Put(key string, data []byte) error {
	_, err := s.put(key, data)
	return err
}

// put is Put that also returns the ETag the endpoint gave the object.
func (s *S3) put(key string, data []byte) (etag string, err error) {
	resp, err := s.do(http.MethodPut, s.urlFor(key), data, nil)
	if err != nil {
		return "", err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return "", s.apiError("PUT", key, resp)
	}
	return resp.Header.Get("ETag"), nil
}

// Get implements BlobStore. The returned reader is lazy and ranged:
// Seek just moves an offset, and each Read run streams from a ranged
// GET starting there — http.ServeContent's seek-to-end size probe costs
// no transfer, and a Range request transfers only the requested bytes.
func (s *S3) Get(key string) (io.ReadSeekCloser, BlobInfo, error) {
	info, err := s.Stat(key)
	if err != nil {
		return nil, BlobInfo{}, err
	}
	return &s3Reader{s: s, key: key, size: info.Size}, info, nil
}

// Stat implements BlobStore via HEAD.
func (s *S3) Stat(key string) (BlobInfo, error) {
	resp, err := s.do(http.MethodHead, s.urlFor(key), nil, nil)
	if err != nil {
		return BlobInfo{}, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return BlobInfo{}, ErrNoBlob
	default:
		return BlobInfo{}, s.apiError("HEAD", key, resp)
	}
	info := BlobInfo{Key: key, Size: resp.ContentLength}
	if t, err := http.ParseTime(resp.Header.Get("Last-Modified")); err == nil {
		info.ModTime = t
	}
	return info, nil
}

// listBucketResult is the ListObjectsV2 response document (the subset
// this package consumes).
type listBucketResult struct {
	IsTruncated           bool   `xml:"IsTruncated"`
	NextContinuationToken string `xml:"NextContinuationToken"`
	Contents              []struct {
		Key          string `xml:"Key"`
		Size         int64  `xml:"Size"`
		LastModified string `xml:"LastModified"`
		ETag         string `xml:"ETag"`
	} `xml:"Contents"`
}

// listedObject is one listing entry: what List returns, plus the ETag
// the manifest chunk cache checks.
type listedObject struct {
	BlobInfo
	etag string
}

// List implements BlobStore with ListObjectsV2, following continuation
// tokens until the listing is complete. Returned keys have the
// configured prefix stripped back off.
func (s *S3) List(prefix string) ([]BlobInfo, error) {
	objs, err := s.list(prefix)
	if err != nil {
		return nil, err
	}
	var out []BlobInfo
	for _, o := range objs {
		out = append(out, o.BlobInfo)
	}
	return out, nil
}

// list is List with each object's ETag.
func (s *S3) list(prefix string) ([]listedObject, error) {
	var out []listedObject
	token := ""
	for {
		q := url.Values{}
		q.Set("list-type", "2")
		q.Set("prefix", s.objectKey(prefix))
		q.Set("max-keys", strconv.Itoa(s.opts.ListPageSize))
		if token != "" {
			q.Set("continuation-token", token)
		}
		resp, err := s.do(http.MethodGet, s.base+"?"+q.Encode(), nil, nil)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			err := s.apiError("LIST", prefix, resp)
			drain(resp)
			return nil, err
		}
		var page listBucketResult
		err = xml.NewDecoder(resp.Body).Decode(&page)
		drain(resp)
		if err != nil {
			return nil, fmt.Errorf("store: s3 list %s: decoding: %w", prefix, err)
		}
		for _, obj := range page.Contents {
			key := obj.Key
			if s.opts.Prefix != "" {
				key = strings.TrimPrefix(key, s.opts.Prefix+"/")
			}
			info := BlobInfo{Key: key, Size: obj.Size}
			if t, err := time.Parse(time.RFC3339, obj.LastModified); err == nil {
				info.ModTime = t
			}
			out = append(out, listedObject{BlobInfo: info, etag: obj.ETag})
		}
		if !page.IsTruncated || page.NextContinuationToken == "" {
			break
		}
		token = page.NextContinuationToken
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Delete implements BlobStore; S3 DELETE of an absent key returns 204.
func (s *S3) Delete(key string) error {
	resp, err := s.do(http.MethodDelete, s.urlFor(key), nil, nil)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return s.apiError("DELETE", key, resp)
	}
	return nil
}

// AppendManifest implements BlobStore. S3 cannot append, so each call
// writes one chunk object whose name sorts in append order: a
// zero-padded nanosecond timestamp (monotonic within this process) plus
// a random nonce to keep two processes' simultaneous appends from
// colliding. A complete chunk is cached, so this handle's next
// manifest read does not fetch it back.
func (s *S3) AppendManifest(line []byte) error {
	now := time.Now().UnixNano()
	for {
		prev := s.seq.Load()
		if now <= prev {
			now = prev + 1
		}
		if s.seq.CompareAndSwap(prev, now) {
			break
		}
	}
	var nonce [4]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return fmt.Errorf("store: s3 manifest nonce: %w", err)
	}
	key := fmt.Sprintf("manifest/%020d-%s.jsonl", now, hex.EncodeToString(nonce[:]))
	etag, err := s.put(key, line)
	if err != nil {
		return err
	}
	if c, ok := cacheableChunk(etag, bytes.Clone(line)); ok {
		s.chunksMu.Lock()
		s.chunks[key] = c
		s.chunksMu.Unlock()
	}
	return nil
}

// ManifestReader implements BlobStore: list the manifest chunks (list
// sorts them into append order) and concatenate their bodies. Each
// chunk is one append, so a chunk that does not end in a newline is a
// torn append: it is skipped, where concatenating it would glue it
// onto the next chunk's line, and never cached, so a later rewrite
// that completes it is read by the next call. A chunk cached with the
// ETag and size the listing shows is not fetched; any other chunk
// costs one GET, and is cached if complete. Chunks the listing no
// longer shows are forgotten.
func (s *S3) ManifestReader() (io.ReadCloser, error) {
	listed, err := s.list("manifest/")
	if err != nil {
		return nil, err
	}
	bodies := make([]io.Reader, len(listed))
	live := make(map[string]manifestChunk, len(listed))
	s.chunksMu.Lock()
	for i, o := range listed {
		if c, ok := s.chunks[o.Key]; ok && c.etag == o.etag && int64(len(c.data)) == o.Size {
			bodies[i] = bytes.NewReader(c.data)
			live[o.Key] = c
		}
	}
	s.chunksMu.Unlock()
	for i, o := range listed {
		if bodies[i] != nil {
			continue
		}
		data, etag, err := s.getChunk(o)
		if err != nil {
			return nil, err
		}
		if c, ok := cacheableChunk(etag, data); ok {
			live[o.Key] = c
		}
		if !bytes.HasSuffix(data, []byte("\n")) {
			data = nil // a torn append
		}
		bodies[i] = bytes.NewReader(data)
	}
	// A chunk this handle appended after the listing drops out of the
	// cache here; the next read fetches it once.
	s.chunksMu.Lock()
	s.chunks = live
	s.chunksMu.Unlock()
	return io.NopCloser(io.MultiReader(bodies...)), nil
}

// getChunk fetches one manifest chunk with a single GET, its buffer
// sized from the listing, and returns the body with the ETag the
// response carried.
func (s *S3) getChunk(o listedObject) (data []byte, etag string, err error) {
	resp, err := s.do(http.MethodGet, s.urlFor(o.Key), nil, nil)
	if err != nil {
		return nil, "", fmt.Errorf("store: s3 manifest chunk %s: %w", o.Key, err)
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, "", fmt.Errorf("store: s3 manifest chunk %s: %w", o.Key, ErrNoBlob)
	default:
		return nil, "", s.apiError("GET", o.Key, resp)
	}
	buf := bytes.NewBuffer(make([]byte, 0, o.Size+bytes.MinRead))
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, "", fmt.Errorf("store: s3 manifest chunk %s: %w", o.Key, err)
	}
	return buf.Bytes(), resp.Header.Get("ETag"), nil
}

// cacheableChunk reports whether a chunk body may be cached: it must
// end in a newline (an unterminated chunk may be a torn write that is
// completed later) and carry an ETag a later listing can check.
func cacheableChunk(etag string, data []byte) (manifestChunk, bool) {
	if etag == "" || !bytes.HasSuffix(data, []byte("\n")) {
		return manifestChunk{}, false
	}
	return manifestChunk{etag: etag, data: data}, true
}

// Close implements BlobStore (the HTTP client holds no resources that
// outlive its idle connections).
func (s *S3) Close() error {
	s.client.CloseIdleConnections()
	return nil
}

// apiError renders a non-2xx S3 response, including the error document
// S3-alikes send in the body.
func (s *S3) apiError(op, key string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(body))
	if msg != "" {
		msg = ": " + msg
	}
	return fmt.Errorf("store: s3 %s %s: %s%s", op, key, resp.Status, msg)
}

// drain discards and closes a response body so the connection is
// reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
}

// s3Reader is a lazy ranged reader over one object. Seek only moves
// the offset; Read opens (or continues) a ranged GET stream at the
// current offset. Seeking invalidates the stream.
type s3Reader struct {
	s    *S3
	key  string
	size int64

	mu     sync.Mutex
	off    int64
	stream io.ReadCloser // open GET body positioned at off, or nil
}

func (r *s3Reader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.off >= r.size {
		return 0, io.EOF
	}
	if r.stream == nil {
		hdr := http.Header{}
		hdr.Set("Range", fmt.Sprintf("bytes=%d-", r.off))
		resp, err := r.s.do(http.MethodGet, r.s.urlFor(r.key), nil, hdr)
		if err != nil {
			return 0, err
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusPartialContent:
		case http.StatusNotFound:
			drain(resp)
			return 0, ErrNoBlob
		default:
			err := r.s.apiError("GET", r.key, resp)
			drain(resp)
			return 0, err
		}
		// A backend that ignores Range replies 200 with the whole
		// object; skip to the offset so Read semantics stay correct.
		if resp.StatusCode == http.StatusOK && r.off > 0 {
			if _, err := io.CopyN(io.Discard, resp.Body, r.off); err != nil {
				resp.Body.Close()
				return 0, fmt.Errorf("store: s3 get %s: skipping to offset: %w", r.key, err)
			}
		}
		r.stream = resp.Body
	}
	n, err := r.stream.Read(p)
	r.off += int64(n)
	if err == io.EOF {
		r.stream.Close()
		r.stream = nil
		if r.off < r.size {
			// Stream ended early (connection drop); next Read resumes.
			err = nil
		}
	}
	if n > 0 && err != nil && err != io.EOF {
		// Surface the bytes; the error repeats on the next call.
		err = nil
	}
	return n, err
}

func (r *s3Reader) Seek(offset int64, whence int) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.off + offset
	case io.SeekEnd:
		abs = r.size + offset
	default:
		return 0, fmt.Errorf("store: s3 reader: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("store: s3 reader: negative offset")
	}
	if abs != r.off && r.stream != nil {
		r.stream.Close()
		r.stream = nil
	}
	r.off = abs
	return abs, nil
}

func (r *s3Reader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stream != nil {
		err := r.stream.Close()
		r.stream = nil
		return err
	}
	return nil
}

// ---- SigV4 ----
//
// Hand-rolled AWS Signature Version 4 (the stdlib-only constraint rules
// out the SDK). The signed headers are host, x-amz-date, and
// x-amz-content-sha256 — the minimum S3 accepts — which keeps the
// canonical request small and deterministic.

const signAlgorithm = "AWS4-HMAC-SHA256"

func (s *S3) sign(req *http.Request, body []byte) {
	if s.opts.AccessKey == "" {
		return // anonymous (stub servers accept unsigned requests)
	}
	now := time.Now().UTC()
	amzDate := now.Format("20060102T150405Z")
	dateStamp := now.Format("20060102")
	payloadHash := sha256Hex(body)
	req.Header.Set("X-Amz-Date", amzDate)
	req.Header.Set("X-Amz-Content-Sha256", payloadHash)

	canonicalHeaders := "host:" + req.URL.Host + "\n" +
		"x-amz-content-sha256:" + payloadHash + "\n" +
		"x-amz-date:" + amzDate + "\n"
	signedHeaders := "host;x-amz-content-sha256;x-amz-date"
	canonicalRequest := strings.Join([]string{
		req.Method,
		req.URL.EscapedPath(),
		canonicalQuery(req.URL),
		canonicalHeaders,
		signedHeaders,
		payloadHash,
	}, "\n")

	scope := strings.Join([]string{dateStamp, s.opts.Region, "s3", "aws4_request"}, "/")
	stringToSign := strings.Join([]string{
		signAlgorithm,
		amzDate,
		scope,
		sha256Hex([]byte(canonicalRequest)),
	}, "\n")

	kDate := hmacSHA256([]byte("AWS4"+s.opts.SecretKey), dateStamp)
	kRegion := hmacSHA256(kDate, s.opts.Region)
	kService := hmacSHA256(kRegion, "s3")
	kSigning := hmacSHA256(kService, "aws4_request")
	signature := hex.EncodeToString(hmacSHA256(kSigning, stringToSign))

	req.Header.Set("Authorization", fmt.Sprintf(
		"%s Credential=%s/%s, SignedHeaders=%s, Signature=%s",
		signAlgorithm, s.opts.AccessKey, scope, signedHeaders, signature))
}

// canonicalQuery renders the query string per SigV4: parameters sorted
// by name, values URI-encoded.
func canonicalQuery(u *url.URL) string {
	q := u.Query()
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		vs := q[k]
		sort.Strings(vs)
		for j, v := range vs {
			if i > 0 || j > 0 {
				b.WriteByte('&')
			}
			b.WriteString(uriEncode(k))
			b.WriteByte('=')
			b.WriteString(uriEncode(v))
		}
	}
	return b.String()
}

// uriEncode is SigV4's strict percent-encoding (unreserved characters
// per RFC 3986 only).
func uriEncode(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

func sha256Hex(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

func hmacSHA256(key []byte, data string) []byte {
	m := hmac.New(sha256.New, key)
	m.Write([]byte(data))
	return m.Sum(nil)
}
