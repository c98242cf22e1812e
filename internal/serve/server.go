package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/eventlog"
	"hcoc/internal/noise"
	"hcoc/internal/store"
)

// maxBodyBytes bounds request bodies; a group record is tens of bytes,
// so this admits tens of millions of groups.
const maxBodyBytes = 1 << 30

// maxHierarchies bounds the uploaded-tree store so a client cycling
// through distinct uploads cannot grow the daemon without limit (the
// release cache is separately LRU-bounded).
const maxHierarchies = 128

// Server is the HTTP front end over the release engine. Hierarchies are
// event logs: established by a snapshot, evolved by appended deltas,
// addressed by the content fingerprint of their first snapshot. Every
// applied event is a new immutable version, and releases, queries, and
// downloads can pin one. With a durable store the logs survive
// restarts: events are replayed from disk on boot.
type Server struct {
	eng     *engine.Engine
	st      *store.Store // nil = memory only
	jobs    *engine.Jobs
	mux     *http.ServeMux
	maxBody int64

	logs     *eventlog.Manager
	maxTrees int
}

// NewServer wires the routes over an engine and an optional durable
// store. With a store, persisted event logs are replayed immediately —
// and pre-event-log hierarchy snapshots migrated into single-snapshot
// logs — so releases and queries work across restarts without
// re-uploading. The server keeps no budget state: both epsilon bounds
// live in the engine.
func NewServer(eng *engine.Engine, st *store.Store) (*Server, error) {
	s := &Server{
		eng:      eng,
		st:       st,
		jobs:     engine.NewJobs(0),
		mux:      http.NewServeMux(),
		maxBody:  maxBodyBytes,
		maxTrees: maxHierarchies,
	}
	for _, rt := range s.routeTable() {
		s.mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.handler)
	}
	logs, err := eventlog.OpenManager(st)
	if err != nil {
		return nil, err
	}
	s.logs = logs
	return s, nil
}

// RefreshLogs re-reads the store manifest for event logs appended by
// other writers on a shared backend: new logs are opened and known logs
// catch up to their durable head. Wired to SIGHUP alongside the store's
// own Refresh.
func (s *Server) RefreshLogs() error {
	return s.logs.Refresh()
}

// Route is one registered endpoint: an HTTP method and a net/http mux
// pattern (path parameters spelled {id}, {node...}).
type Route struct {
	Method  string
	Pattern string
}

// routeEntry pairs a Route with its handler; routeTable is the single
// source of truth for registration and for Routes.
type routeEntry struct {
	Route
	handler http.HandlerFunc
}

func (s *Server) routeTable() []routeEntry {
	return []routeEntry{
		{Route{"POST", "/v1/hierarchy"}, s.handleHierarchy},
		{Route{"GET", "/v1/hierarchy"}, s.handleListHierarchies},
		{Route{"POST", "/v1/hierarchy/{id}/events"}, s.handleAppendEvents},
		{Route{"GET", "/v1/hierarchy/{id}/versions"}, s.handleVersions},
		{Route{"POST", "/v1/release"}, s.handleRelease},
		{Route{"GET", "/v1/release"}, s.handleListReleases},
		{Route{"GET", "/v1/release/{id}"}, s.handleGetRelease},
		{Route{"GET", "/v1/jobs/{id}"}, s.handleGetJob},
		{Route{"POST", "/v1/query/batch"}, s.handleBatchQuery},
		{Route{"GET", "/v1/query/{node...}"}, s.handleQuery},
		{Route{"GET", "/v1/budget/{id}"}, s.handleBudget},
		{Route{"GET", "/v1/tenants"}, s.handleTenants},
		{Route{"GET", "/healthz"}, s.handleHealthz},
		{Route{"GET", "/metrics"}, s.handleMetrics},
	}
}

// Routes lists every registered endpoint. The OpenAPI coverage test
// uses it to fail the build when docs/openapi.yaml misses a route.
func (s *Server) Routes() []Route {
	table := s.routeTable()
	out := make([]Route, len(table))
	for i, rt := range table {
		out[i] = rt.Route
	}
	return out
}

// ServeHTTP implements http.Handler. Request bodies are bounded (and,
// with Content-Encoding: gzip, transparently decompressed under the
// same bound); a response body of at least 1 KiB is gzip-compressed
// when the client accepts it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r, release, ok := WrapRequest(w, r, s.maxBody)
	if !ok {
		return
	}
	defer release()
	w, finish := CompressResponse(w, r)
	defer finish()
	s.mux.ServeHTTP(w, r)
}

// WrapRequest applies the request side of the HTTP transport
// conventions shared by every hcoc serving tier (this server and
// hcoc-gateway): the body is bounded at maxBody and, with
// Content-Encoding: gzip, transparently decompressed under the same
// bound. ok reports whether to proceed; false means an error response
// was already written (an unsupported Content-Encoding, 415). When ok,
// the returned release func must be deferred around the handler: it
// hands a gzip body's decompressor back for reuse, which the body's
// Close cannot do, because net/http closes the body it created, not
// this wrapper.
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
// conventions: a body of at least 1 KiB is gzip-compressed when the
// client accepts it, and a shorter one goes out as identity. The
// returned finish func must be deferred around the handler (it flushes
// the compressor, or sends the short body).
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

// WriteJSON writes v as a compact JSON response. Exported for the
// gateway tier, which answers in the same wire shapes as the backend.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the canonical {"error", "code"} body every non-2xx
// response carries, deriving the code from the status. Exported for
// the gateway tier.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: errorCode(status)})
}

// DecodeJSON parses a POST body into v, writing the precise failure
// status itself: 415 for a non-JSON Content-Type, 413 when the body
// overran the MaxBytesReader bound (which would otherwise surface as a
// generic parse error), 400 for malformed JSON. It reports whether the
// handler should proceed. Exported for the gateway tier, so both tiers
// refuse bad bodies with byte-identical semantics.
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

// checkGroup reports why a group named in a request is refused, or
// nil: its size must lie in [0, hcoc.MaxGroupSize], and no region name
// may contain "/", the separator of node paths. Only request input is
// checked; a persisted event log replays whatever it holds.
func checkGroup(path []string, size int64) error {
	if size < 0 || size > hcoc.MaxGroupSize {
		return fmt.Errorf("size %d is outside [0, %d]", size, hcoc.MaxGroupSize)
	}
	for _, name := range path {
		if strings.Contains(name, "/") {
			return fmt.Errorf("region name %q contains \"/\"", name)
		}
	}
	return nil
}

// CheckUpload reports why the groups of a hierarchy upload are refused,
// or nil: there is at least one, each passes checkGroup, and every path
// names a leaf at the same non-zero depth. Groups that pass always
// build a hierarchy.
func CheckUpload(groups []hcoc.Group) error {
	if len(groups) == 0 {
		return errors.New("no groups in upload")
	}
	depth := len(groups[0].Path)
	for i, g := range groups {
		if len(g.Path) == 0 {
			return fmt.Errorf("group %d has an empty path", i)
		}
		if len(g.Path) != depth {
			return fmt.Errorf("group %d has a path of %d regions, group 0 one of %d", i, len(g.Path), depth)
		}
		if err := checkGroup(g.Path, g.Size); err != nil {
			return fmt.Errorf("group %d: %v", i, err)
		}
	}
	return nil
}

// checkEvent applies checkGroup to every group an event names.
func checkEvent(rec client.Event) error {
	for _, gs := range [][]client.EventGroup{rec.Groups, rec.Remove, rec.Add} {
		for _, g := range gs {
			if err := checkGroup(g.Path, g.Size); err != nil {
				return err
			}
		}
	}
	for _, d := range rec.Drift {
		if err := checkGroup(d.Path, d.From); err != nil {
			return err
		}
		if err := checkGroup(d.Path, d.To); err != nil {
			return err
		}
	}
	return nil
}

// hierarchyRequest is the body of POST /v1/hierarchy.
type hierarchyRequest struct {
	Root   string              `json:"root"`
	Groups []client.EventGroup `json:"groups"`
}

// handleHierarchy is the legacy snapshot upload, kept as a deprecated
// alias: the body becomes the log's snapshot event. The log id is the
// snapshot tree's fingerprint — the same content address this endpoint
// always handed out — so re-uploads stay idempotent, and an existing
// log keeps any deltas already appended (the upload does NOT reset it;
// version reports the log's current head).
func (s *Server) handleHierarchy(w http.ResponseWriter, r *http.Request) {
	var req hierarchyRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	if req.Root == "" {
		req.Root = "root"
	}
	groups := make([]hcoc.Group, len(req.Groups))
	for i, g := range req.Groups {
		groups[i] = hcoc.Group{Path: g.Path, Size: g.Size}
	}
	if err := CheckUpload(groups); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	l, _, err := s.logs.CreateWithin(req.Root, groups, s.maxTrees)
	if errors.Is(err, eventlog.ErrFull) {
		WriteError(w, http.StatusInsufficientStorage,
			"hierarchy store is full (%d); re-use an uploaded hierarchy or restart the server", s.maxTrees)
		return
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "establishing event log: %v", err)
		return
	}

	w.Header().Set("Deprecation", "true")
	w.Header().Set("Link", fmt.Sprintf("</v1/hierarchy/h-%s/events>; rel=\"successor-version\"", l.ID()))
	WriteJSON(w, http.StatusOK, logResponse(l))
}

// logResponse renders a log's head-version summary.
func logResponse(l *eventlog.Log) client.Hierarchy {
	head := l.Head()
	tree := l.HeadTree()
	return client.Hierarchy{
		ID:          "h-" + l.ID(),
		Depth:       tree.Depth(),
		Nodes:       len(tree.Nodes()),
		Groups:      tree.Root.G(),
		People:      tree.Root.Hist.People(),
		Version:     head.Seq,
		Fingerprint: head.Fingerprint,
	}
}

func (s *Server) handleListHierarchies(w http.ResponseWriter, r *http.Request) {
	logs := s.logs.Logs()
	out := make([]client.Hierarchy, 0, len(logs))
	for _, l := range logs {
		out = append(out, logResponse(l))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	WriteJSON(w, http.StatusOK, out)
}

// appendEventsRequest is the body of POST /v1/hierarchy/{id}/events.
type appendEventsRequest struct {
	Events []client.Event `json:"events"`
}

func toVersionInfo(v eventlog.Version) client.HierarchyVersion {
	return client.HierarchyVersion{
		Version:     v.Seq,
		Fingerprint: v.Fingerprint,
		CreatedAt:   v.CreatedAt,
		Type:        v.Type,
		Nodes:       v.Nodes,
		Groups:      v.Groups,
	}
}

// conflictResponse is the 409 body of a failed If-Match precondition:
// the head the caller must rebase onto.
type conflictResponse struct {
	Error           string `json:"error"`
	Code            string `json:"code"`
	Hierarchy       string `json:"hierarchy"`
	HeadVersion     int64  `json:"head_version"`
	HeadFingerprint string `json:"head_fingerprint"`
	Given           string `json:"given"`
}

// eventFromRecord lowers a wire event into the log's type.
func eventFromRecord(rec client.Event) eventlog.Event {
	conv := func(gs []client.EventGroup) []eventlog.Group {
		if len(gs) == 0 {
			return nil
		}
		out := make([]eventlog.Group, len(gs))
		for i, g := range gs {
			out[i] = eventlog.Group{Path: g.Path, Size: g.Size}
		}
		return out
	}
	ev := eventlog.Event{
		Type:   rec.Type,
		Root:   rec.Root,
		Groups: conv(rec.Groups),
		Add:    conv(rec.Add),
		Remove: conv(rec.Remove),
	}
	for _, d := range rec.Drift {
		ev.Drift = append(ev.Drift, eventlog.Drift{Path: d.Path, From: d.From, To: d.To, Count: d.Count})
	}
	return ev
}

// handleAppendEvents appends delta events to a hierarchy's log. Each
// applied event is a new immutable version; the response names the
// resulting head. An If-Match header (the expected head fingerprint,
// quoted or bare) makes the first append conditional: a stale value is
// a 409 with the current head, and nothing is applied. Events apply in
// order, one at a time — an invalid event fails the request at that
// index, keeping the versions the earlier events already produced.
func (s *Server) handleAppendEvents(w http.ResponseWriter, r *http.Request) {
	l, ok := s.logs.Get(hierarchyID(r.PathValue("id")))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown hierarchy %q; POST /v1/hierarchy first", r.PathValue("id"))
		return
	}
	var req appendEventsRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	if len(req.Events) == 0 {
		WriteError(w, http.StatusBadRequest, "no events in request")
		return
	}
	ifMatch := strings.Trim(r.Header.Get("If-Match"), `"`)
	var head eventlog.Version
	for i, rec := range req.Events {
		if err := checkEvent(rec); err != nil {
			WriteError(w, http.StatusBadRequest, "event %d (after %d applied): %v", i, i, err)
			return
		}
		ev := eventFromRecord(rec)
		match := ""
		if i == 0 {
			match = ifMatch
		}
		v, err := l.Append(ev, match)
		if err != nil {
			var conflict *eventlog.ConflictError
			if errors.As(err, &conflict) {
				WriteJSON(w, http.StatusConflict, conflictResponse{
					Error:           err.Error(),
					Code:            "version_conflict",
					Hierarchy:       "h-" + l.ID(),
					HeadVersion:     conflict.Head.Seq,
					HeadFingerprint: conflict.Head.Fingerprint,
					Given:           conflict.Given,
				})
				return
			}
			WriteError(w, http.StatusBadRequest, "event %d (after %d applied): %v", i, i, err)
			return
		}
		head = v
	}
	WriteJSON(w, http.StatusOK, client.AppendResult{
		Hierarchy: "h-" + l.ID(),
		Applied:   len(req.Events),
		Head:      toVersionInfo(head),
	})
}

// versionsResponse is the body of GET /v1/hierarchy/{id}/versions.
type versionsResponse struct {
	Hierarchy string                    `json:"hierarchy"`
	Root      string                    `json:"root"`
	Head      int64                     `json:"head"`
	Versions  []client.HierarchyVersion `json:"versions"`
}

// handleVersions lists a hierarchy's immutable versions, oldest first.
func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	l, ok := s.logs.Get(hierarchyID(r.PathValue("id")))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown hierarchy %q; POST /v1/hierarchy first", r.PathValue("id"))
		return
	}
	vs := l.Versions()
	out := versionsResponse{
		Hierarchy: "h-" + l.ID(),
		Root:      l.Root(),
		Head:      vs[len(vs)-1].Seq,
		Versions:  make([]client.HierarchyVersion, len(vs)),
	}
	for i, v := range vs {
		out.Versions[i] = toVersionInfo(v)
	}
	WriteJSON(w, http.StatusOK, out)
}

// budgetResponse is the 429 body when a release would exceed an
// epsilon bound; remaining_epsilon tells the client what it could still
// afford. Code distinguishes the per-version bound ("budget") from the
// cross-version continual-observation bound ("continual_budget"), and
// max_epsilon_per_hierarchy carries the bound that refused.
type budgetResponse struct {
	Error                  string  `json:"error"`
	Code                   string  `json:"code"`
	Hierarchy              string  `json:"hierarchy"`
	RequestedEpsilon       float64 `json:"requested_epsilon"`
	RemainingEpsilon       float64 `json:"remaining_epsilon"`
	MaxEpsilonPerHierarchy float64 `json:"max_epsilon_per_hierarchy"`
}

// overloadResponse is the 429 body when a tenant's compute queue is at
// its bound; retry_after_seconds mirrors the Retry-After header.
type overloadResponse struct {
	Error             string `json:"error"`
	Code              string `json:"code"`
	Hierarchy         string `json:"hierarchy"`
	QueueDepth        int    `json:"queue_depth"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// writeReleaseError maps a failed release of log l to its status:
// budget exhaustion and compute-queue overload are both 429 (the latter
// with a Retry-After header — it is transient backpressure, not a spent
// budget), everything else 500. A continual refusal names the log, whose
// versions share the bound; a per-version one names the version's tree.
func (s *Server) writeReleaseError(w http.ResponseWriter, l *eventlog.Log, err error) {
	var be *engine.BudgetError
	if errors.As(err, &be) {
		code, hierarchy := "budget", be.Hierarchy
		if be.Continual {
			code, hierarchy = "continual_budget", l.ID()
		}
		WriteJSON(w, http.StatusTooManyRequests, budgetResponse{
			Error:                  err.Error(),
			Code:                   code,
			Hierarchy:              "h-" + hierarchy,
			RequestedEpsilon:       be.Requested,
			RemainingEpsilon:       be.Remaining,
			MaxEpsilonPerHierarchy: be.Limit,
		})
		return
	}
	var ov *engine.OverloadError
	if errors.As(err, &ov) {
		secs := int((ov.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		WriteJSON(w, http.StatusTooManyRequests, overloadResponse{
			Error:             err.Error(),
			Code:              "overload",
			Hierarchy:         "h-" + ov.Tenant,
			QueueDepth:        ov.QueueDepth,
			RetryAfterSeconds: secs,
		})
		return
	}
	WriteError(w, http.StatusInternalServerError, "release failed: %v", err)
}

// prevCandidates names the versions whose retained release state could
// seed an incremental recompute of target, nearest first. The walk
// stops at a snapshot boundary (everything changed — no reuse) and
// after a handful of candidates: state for versions further back has
// almost certainly been evicted, and each candidate's changed set costs
// memory to carry.
func prevCandidates(l *eventlog.Log, target int64) []engine.PrevVersion {
	var out []engine.PrevVersion
	for seq := target - 1; seq >= 1 && len(out) < 8; seq-- {
		changed, ok := l.ChangedSince(seq, target)
		if !ok {
			break
		}
		v, ok := l.Version(seq)
		if !ok {
			break
		}
		out = append(out, engine.PrevVersion{TreeFP: v.Fingerprint, Changed: changed})
	}
	return out
}

func parseMethods(names []string) ([]hcoc.Method, error) {
	var out []hcoc.Method
	for _, name := range names {
		switch name {
		case "hc":
			out = append(out, hcoc.MethodHc)
		case "hg":
			out = append(out, hcoc.MethodHg)
		case "naive":
			out = append(out, hcoc.MethodNaive)
		default:
			return nil, fmt.Errorf("unknown method %q (want hc|hg|naive)", name)
		}
	}
	return out, nil
}

func parseMerge(name string) (hcoc.MergeStrategy, error) {
	switch name {
	case "", "weighted":
		return hcoc.MergeWeighted, nil
	case "average":
		return hcoc.MergeAverage, nil
	default:
		return 0, fmt.Errorf("unknown merge strategy %q (want weighted|average)", name)
	}
}

// handleRelease answers POST /v1/release. With "async": true (the body
// client.ReleaseAsync sends) it answers 202 Accepted at once with a job
// id to poll at GET /v1/jobs/{id}. Version pins which immutable
// hierarchy version is released; 0 (or absent) means the current head.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		client.ReleaseRequest
		Async bool `json:"async"`
	}
	if !DecodeJSON(w, r, &req) {
		return
	}
	l, ok := s.logs.Get(hierarchyID(req.Hierarchy))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown hierarchy %q; POST /v1/hierarchy first", req.Hierarchy)
		return
	}
	if req.Version < 0 {
		WriteError(w, http.StatusBadRequest, "version must be nonnegative, got %d (0 selects the head)", req.Version)
		return
	}
	tree, ver, err := l.Tree(req.Version)
	if err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	alg, err := engine.ParseAlgorithm(req.Algorithm)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	methods, err := parseMethods(req.Methods)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	merge, err := parseMerge(req.Merge)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Refused here, before the engine charges anything: top-down gives
	// each level of the tree an equal share of the budget.
	levels := 1
	if alg == engine.TopDown {
		levels = tree.Depth()
	}
	if err := noise.CheckEpsilon(req.Epsilon, levels); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.K < 0 || req.K > hcoc.MaxGroupSize {
		WriteError(w, http.StatusBadRequest, "k must lie in [0, %d], got %d (0 selects the default)", hcoc.MaxGroupSize, req.K)
		return
	}

	opts := hcoc.Options{
		Epsilon: req.Epsilon,
		K:       req.K,
		Methods: methods,
		Merge:   merge,
		Seed:    req.Seed,
		Workers: req.Workers,
	}

	prev := func() []engine.PrevVersion { return prevCandidates(l, ver.Seq) }

	if req.Async {
		// Detach from the request: the job runs under the background
		// context and outlives this connection.
		job, err := s.jobs.Submit(func() (engine.Result, error) {
			return s.eng.ReleaseFrom(context.Background(), tree, ver.Fingerprint, alg, opts, prev, l.Fingerprints)
		})
		if err != nil {
			WriteError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/j-"+job.ID)
		WriteJSON(w, http.StatusAccepted, client.Job{
			Job:       "j-" + job.ID,
			Status:    string(job.State),
			Hierarchy: req.Hierarchy,
			CreatedAt: job.Created.UTC().Format(time.RFC3339Nano),
		})
		return
	}

	res, err := s.eng.ReleaseFrom(r.Context(), tree, ver.Fingerprint, alg, opts, prev, l.Fingerprints)
	if err != nil {
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			return // client went away
		}
		s.writeReleaseError(w, l, err)
		return
	}
	WriteJSON(w, http.StatusOK, client.Release{
		Release:        "r-" + res.Key,
		Hierarchy:      "h-" + l.ID(),
		Version:        ver.Seq,
		Fingerprint:    ver.Fingerprint,
		Algorithm:      alg.String(),
		Epsilon:        req.Epsilon,
		Nodes:          len(res.Release),
		CacheHit:       res.CacheHit,
		StoreHit:       res.StoreHit,
		Deduped:        res.Deduped,
		Incremental:    res.Incremental,
		NodesEstimated: res.Stats.NodesEstimated,
		NodesTotal:     res.Stats.NodesTotal,
		DurationMS:     float64(res.Duration.Microseconds()) / 1000,
	})
}

// jobID strips the "j-" prefix job ids are served with.
func jobID(id string) string {
	if len(id) > 2 && id[:2] == "j-" {
		return id[2:]
	}
	return id
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(jobID(r.PathValue("id")))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job; it may have been evicted after completion")
		return
	}
	resp := client.Job{
		Job:        "j-" + j.ID,
		Status:     string(j.State),
		Error:      j.Err,
		CacheHit:   j.CacheHit,
		StoreHit:   j.StoreHit,
		Deduped:    j.Deduped,
		DurationMS: float64(j.Duration.Microseconds()) / 1000,
		CreatedAt:  j.Created.UTC().Format(time.RFC3339Nano),
	}
	if j.Key != "" {
		resp.Release = "r-" + j.Key
	}
	if !j.Started.IsZero() {
		resp.StartedAt = j.Started.UTC().Format(time.RFC3339Nano)
	}
	if !j.Finished.IsZero() {
		resp.FinishedAt = j.Finished.UTC().Format(time.RFC3339Nano)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleListReleases lists the durable artifacts: what survives a
// restart. Without a data dir the list is empty — in-memory cache
// entries are intentionally excluded, they are an eviction away from
// gone. ?hierarchy= narrows the list to one event log (artifacts of
// every version); adding ?version= narrows to one pinned version.
func (s *Server) handleListReleases(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var filter map[string]bool // version fingerprints; nil = unfiltered
	if hid := hierarchyID(q.Get("hierarchy")); hid != "" {
		l, ok := s.logs.Get(hid)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown hierarchy %q", q.Get("hierarchy"))
			return
		}
		filter = make(map[string]bool)
		if raw := q.Get("version"); raw != "" {
			seq, err := strconv.ParseInt(raw, 10, 64)
			if err != nil || seq < 0 {
				WriteError(w, http.StatusBadRequest, "bad version %q (want a nonnegative integer)", raw)
				return
			}
			v, ok := l.Version(seq)
			if !ok {
				WriteError(w, http.StatusNotFound, "hierarchy h-%s has no version %d (head is %d)", l.ID(), seq, l.Head().Seq)
				return
			}
			filter[v.Fingerprint] = true
		} else {
			for _, fp := range l.Fingerprints() {
				filter[fp] = true
			}
		}
	} else if q.Get("version") != "" {
		WriteError(w, http.StatusBadRequest, "version filter requires a hierarchy filter")
		return
	}
	out := []client.ReleaseArtifact{}
	if s.st != nil {
		for _, m := range s.st.List() {
			if filter != nil && !filter[m.Hierarchy] {
				continue
			}
			out = append(out, client.ReleaseArtifact{
				Release:    "r-" + m.Key,
				Hierarchy:  "h-" + m.Hierarchy,
				Algorithm:  m.Algorithm,
				Epsilon:    m.Epsilon,
				CostBytes:  m.CostBytes,
				DurationMS: m.DurationMS,
				CreatedAt:  m.CreatedAt,
			})
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// releaseID strips the "r-" prefix release keys are served with.
func releaseID(id string) string {
	if len(id) > 2 && id[:2] == "r-" {
		return id[2:]
	}
	return id
}

// ServeArtifact writes a release artifact body with the full
// conditional-download contract: exact Content-Length, Accept-Ranges
// with single- and malformed-Range handling (206/416), If-None-Match
// against the strong ETag (304), and If-Modified-Since when modTime is
// known. Exported for the gateway tier, which serves artifacts from a
// shared store with identical semantics.
func ServeArtifact(w http.ResponseWriter, r *http.Request, etag string, modTime time.Time, content io.ReadSeeker) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	// The empty name disables ServeContent's extension-based type
	// sniffing; Content-Type above is authoritative.
	http.ServeContent(w, r, "", modTime, content)
}

// releaseETag is the strong validator of an artifact download. Release
// keys are content addresses — hierarchy fingerprint, algorithm and
// options — and artifacts are immutable once stored, so the key itself
// validates; the dense rendering is a different byte stream and gets a
// distinct tag.
func releaseETag(key, format string) string {
	if format == "dense" {
		return `"` + key + `-dense"`
	}
	return `"` + key + `"`
}

func (s *Server) handleGetRelease(w http.ResponseWriter, r *http.Request) {
	key := releaseID(r.PathValue("id"))
	format := r.URL.Query().Get("format")
	switch format {
	case "", "sparse", "dense":
	default:
		WriteError(w, http.StatusBadRequest, "unknown artifact format %q (want sparse|dense)", format)
		return
	}

	// Zero-copy fast path: the sparse artifact is stored verbatim, so a
	// durable hit streams the backend's ReadSeeker straight into
	// ServeContent — no decode, no re-encode, no buffering of the body.
	if format != "dense" && s.st != nil {
		if f, _, m, err := s.st.OpenRelease(key); err == nil {
			defer f.Close()
			ServeArtifact(w, r, releaseETag(key, format), m.CreatedAt, f)
			return
		}
	}

	// Buffered fallback: cache-only releases (no durable store) and the
	// dense rendering, which only exists on demand. Sparse reads through
	// both tiers: the LRU first, then the durable store (admitting a hit
	// back into the LRU). Serialize before writing so a failure is a
	// clean 500, never a 200 with a truncated artifact; serving the
	// buffer through ServeArtifact keeps ETag/Range semantics identical
	// to the zero-copy path.
	rel, epsilon, err := s.eng.Sparse(key)
	if err != nil {
		WriteError(w, http.StatusNotFound, "release not cached or stored; POST /v1/release to (re)compute it")
		return
	}
	var buf bytes.Buffer
	if format == "dense" {
		err = hcoc.WriteRelease(&buf, rel.Dense(), epsilon)
	} else {
		err = hcoc.WriteReleaseSparse(&buf, rel, epsilon)
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "writing artifact: %v", err)
		return
	}
	ServeArtifact(w, r, releaseETag(key, format), time.Time{}, bytes.NewReader(buf.Bytes()))
}

// parseQueryParams parses the q/k/topcode statistics selectors of a
// node query, writing the 400 itself on bad input; ok reports whether
// the handler should proceed.
func parseQueryParams(w http.ResponseWriter, q url.Values) (quantiles []float64, kth []int64, topCode int, ok bool) {
	for _, raw := range q["q"] {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad quantile %q", raw)
			return nil, nil, 0, false
		}
		quantiles = append(quantiles, v)
	}
	for _, raw := range q["k"] {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad rank %q", raw)
			return nil, nil, 0, false
		}
		kth = append(kth, v)
	}
	if raw := q.Get("topcode"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			WriteError(w, http.StatusBadRequest, "bad topcode %q (want a positive integer)", raw)
			return nil, nil, 0, false
		}
		topCode = v
	}
	return quantiles, kth, topCode, true
}

// resolveReleaseKey maps a (hierarchy, version) pair to the most recent
// durable release artifact of that pinned version. Pinned queries stay
// byte-stable as the hierarchy keeps moving: the version's fingerprint
// is immutable, and the artifacts it names never change.
func (s *Server) resolveReleaseKey(w http.ResponseWriter, hierarchy, version string) (string, bool) {
	l, ok := s.logs.Get(hierarchyID(hierarchy))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown hierarchy %q", hierarchy)
		return "", false
	}
	var seq int64
	if version != "" {
		v, err := strconv.ParseInt(version, 10, 64)
		if err != nil || v < 0 {
			WriteError(w, http.StatusBadRequest, "bad version %q (want a nonnegative integer)", version)
			return "", false
		}
		seq = v
	}
	ver, ok := l.Version(seq)
	if !ok {
		WriteError(w, http.StatusNotFound, "hierarchy h-%s has no version %d (head is %d)", l.ID(), seq, l.Head().Seq)
		return "", false
	}
	var latest store.Meta
	found := false
	if s.st != nil {
		latest, found = s.st.LatestRelease(ver.Fingerprint)
	}
	if !found {
		WriteError(w, http.StatusNotFound,
			"no durable release for hierarchy h-%s version %d; POST /v1/release with \"version\": %d first",
			l.ID(), ver.Seq, ver.Seq)
		return "", false
	}
	return latest.Key, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	node := r.PathValue("node")
	q := r.URL.Query()
	key := releaseID(q.Get("release"))
	if key == "" && q.Get("hierarchy") != "" {
		// Version-pinned addressing: ?hierarchy=&version= resolves to the
		// latest durable artifact of that immutable version (version
		// absent or 0 = current head).
		resolved, ok := s.resolveReleaseKey(w, q.Get("hierarchy"), q.Get("version"))
		if !ok {
			return
		}
		key = resolved
	}
	if key == "" {
		WriteError(w, http.StatusBadRequest, "missing release query parameter (or hierarchy+version)")
		return
	}
	quantiles, kth, topCode, ok := parseQueryParams(w, q)
	if !ok {
		return
	}
	entry := client.NodeQuery{Node: node, Quantiles: quantiles, KthLargest: kth, TopCode: topCode}
	qs, err := lower(key, []client.NodeQuery{entry})
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	res := s.eng.Query(qs[0])
	switch {
	case errors.Is(res.Err, engine.ErrNotCached):
		WriteError(w, http.StatusNotFound, "release not cached; POST /v1/release to (re)compute it")
		return
	case res.Err != nil:
		WriteError(w, http.StatusBadRequest, "%v", res.Err)
		return
	}
	WriteJSON(w, http.StatusOK, reportToQueryResponse(entry, *res.Report))
}

// handleTenants reports the QoS state per tenant: weights, live queue
// occupancy, admission counters, and how each tenant's requests were
// satisfied. Operators watch it to decide when a tenant needs its
// weight raised — or its client fixed.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Scheduler().Snapshot()
	stats := s.eng.TenantStats()
	resp := client.TenantsStatus{
		ComputeSlots: snap.Slots,
		InUse:        snap.InUse,
		QueueDepth:   snap.QueueDepth,
		Queued:       snap.Queued,
		Rejected:     snap.Rejected,
		ActiveReads:  snap.ActiveReads,
		Reads:        snap.Reads,
		Tenants:      make([]client.TenantStatus, 0, len(stats)),
	}
	for _, ts := range stats {
		resp.Tenants = append(resp.Tenants, client.TenantStatus{
			Tenant:       "h-" + ts.Tenant,
			Weight:       ts.Weight,
			Active:       ts.Active,
			Queued:       ts.Queued,
			Granted:      ts.Granted,
			Rejected:     ts.Rejected,
			Cancelled:    ts.Cancelled,
			QueueWaitMS:  float64(ts.QueueWait.Microseconds()) / 1000,
			Requests:     ts.Requests,
			CacheHits:    ts.CacheHits,
			Deduped:      ts.Deduped,
			StoreHits:    ts.StoreHits,
			Computed:     ts.Computed,
			EpsilonSpent: ts.EpsilonSpent,
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}

// healthzResponse is the JSON shape of GET /healthz. Instance is the
// engine's random per-process identity: cluster gateways record it so
// topology introspection can name which process answers at each URL
// (and notice restarts, which mint a fresh id).
type healthzResponse struct {
	Status      string `json:"status"`
	Instance    string `json:"instance"`
	Hierarchies int    `json:"hierarchies"`
	Inflight    int    `json:"inflight_releases"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hierarchies := s.logs.Len()
	WriteJSON(w, http.StatusOK, healthzResponse{
		Status:      "ok",
		Instance:    s.eng.ID(),
		Hierarchies: hierarchies,
		Inflight:    s.eng.Metrics().InFlight,
	})
}

// handleMetrics exposes the engine counters in the Prometheus text
// exposition format, dependency-free.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics()
	logs := s.logs.Logs()
	hierarchies := len(logs)
	var versions int64
	for _, l := range logs {
		versions += l.Head().Seq
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	put := func(name, help string, value any) {
		fmt.Fprintf(w, "# HELP %s %s\n%s %v\n", name, help, name, value)
	}
	put("hcoc_cache_hits_total", "Release requests answered from the cache.", m.CacheHits)
	put("hcoc_cache_misses_total", "Release requests that started a computation.", m.CacheMisses)
	put("hcoc_deduped_total", "Release requests coalesced onto an in-flight computation.", m.Deduped)
	put("hcoc_cache_hit_rate", "Fraction of release requests answered from the cache.", m.HitRate())
	put("hcoc_cache_entries", "Completed releases currently cached.", m.CacheEntries)
	put("hcoc_cache_capacity", "LRU capacity in releases.", m.CacheCapacity)
	put("hcoc_cache_cost_bytes", "Estimated resident bytes of cached releases (run accounting).", m.CacheCostBytes)
	put("hcoc_cache_budget_bytes", "Byte budget of the release cache (0 = unbudgeted).", m.CacheBudgetBytes)
	put("hcoc_cache_runs", "Total histogram runs held across cached releases.", m.CacheRuns)
	put("hcoc_cache_evictions_total", "Completed releases evicted by the LRU.", m.Evictions)
	put("hcoc_store_hits_total", "Reads served from the durable store without recomputation.", m.StoreHits)
	put("hcoc_store_puts_total", "Releases written through to the durable store.", m.StorePuts)
	put("hcoc_store_errors_total", "Failed durable-store reads/writes (request still served).", m.StoreErrors)
	put("hcoc_store_artifacts", "Releases held by the durable store.", m.StoreArtifacts)
	backend, shared := "none", false
	if s.st != nil {
		backend, shared = s.st.Backend(), s.st.Shared()
	}
	fmt.Fprintf(w, "# HELP hcoc_store_backend_info Configured blob backend (constant 1; the labels carry the information).\nhcoc_store_backend_info{backend=%q,shared=%q} 1\n",
		backend, strconv.FormatBool(shared))
	put("hcoc_epsilon_spent_total", "Cumulative epsilon of actual computations across hierarchies.", m.EpsilonSpent)
	put("hcoc_epsilon_spent_local", "Epsilon drawn by this process (excludes spend replayed from the store manifest).", m.EpsilonSpentLocal)
	put("hcoc_epsilon_limit_per_hierarchy", "Configured per-hierarchy epsilon bound (0 = unenforced).", m.EpsilonLimit)
	put("hcoc_jobs", "Async release jobs currently retained.", s.jobs.Len())
	put("hcoc_releases_total", "Completed release computations.", m.Releases)
	put("hcoc_inflight_releases", "Release computations running now.", m.InFlight)
	put("hcoc_queries_total", "Node query reads served (batch entries counted individually).", m.Queries)
	put("hcoc_batch_queries_total", "Batch query requests served, each one engine pass.", m.Batches)
	put("hcoc_release_seconds_total", "Cumulative release computation time.", m.ReleaseTotal.Seconds())
	put("hcoc_release_seconds_last", "Duration of the most recent release computation.", m.LastRelease.Seconds())
	put("hcoc_hierarchies", "Hierarchies (event logs) currently loaded.", hierarchies)
	put("hcoc_hierarchy_versions", "Immutable hierarchy versions across all event logs.", versions)
	put("hcoc_incremental_releases_total", "Release computations that reused retained state from a prior version.", m.IncrementalReleases)
	put("hcoc_recompute_nodes_estimated_total", "Nodes re-estimated across incremental-capable computations.", m.RecomputeNodesEstimated)
	put("hcoc_recompute_nodes_total", "Nodes visited across incremental-capable computations.", m.RecomputeNodesTotal)
	put("hcoc_recompute_parents_matched_total", "Parent rerun-matching passes executed across incremental-capable computations.", m.RecomputeParentsMatched)
	put("hcoc_recompute_parents_total", "Parent nodes visited across incremental-capable computations.", m.RecomputeParentsTotal)
	put("hcoc_release_states", "Per-release recompute states currently retained.", m.StateEntries)
	put("hcoc_release_state_cost_bytes", "Estimated resident bytes of retained recompute states.", m.StateCostBytes)
	put("hcoc_epsilon_limit_continual", "Configured continual-observation epsilon bound per hierarchy (0 = unenforced).", m.EpsilonLimitContinual)

	// Compute scheduler: pool state, the read priority lane, and one
	// labeled series set per tenant.
	snap := s.eng.Scheduler().Snapshot()
	put("hcoc_compute_slots", "Compute slots in the release pool.", snap.Slots)
	put("hcoc_compute_slots_in_use", "Compute slots held by running computations.", snap.InUse)
	put("hcoc_compute_queue_depth", "Per-tenant compute queue bound.", snap.QueueDepth)
	put("hcoc_compute_queued", "Release computations queued for a slot across tenants.", snap.Queued)
	put("hcoc_compute_rejected_total", "Release requests refused at admission (queue full).", snap.Rejected)
	put("hcoc_read_lane_active", "Reads in flight on the priority lane (never queued behind compute).", snap.ActiveReads)
	put("hcoc_read_lane_reads_total", "Lifetime reads admitted on the priority lane.", snap.Reads)

	labeled := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	stats := s.eng.TenantStats()
	labeled("hcoc_tenant_requests_total", "Release requests per tenant (hierarchy), however satisfied.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_requests_total{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Requests)
	}
	labeled("hcoc_tenant_computed_total", "Release computations per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_computed_total{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Computed)
	}
	labeled("hcoc_tenant_deduped_total", "Requests coalesced onto in-flight computations, per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_deduped_total{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Deduped)
	}
	labeled("hcoc_tenant_rejected_total", "Admission refusals (queue full) per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_rejected_total{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Rejected)
	}
	labeled("hcoc_tenant_queued", "Release computations queued now, per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_queued{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Queued)
	}
	labeled("hcoc_tenant_active", "Compute slots held now, per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_active{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Active)
	}
	labeled("hcoc_tenant_weight", "Configured fair-share weight per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_weight{tenant=%q} %g\n", "h-"+ts.Tenant, ts.Weight)
	}
	labeled("hcoc_tenant_queue_wait_seconds_total", "Cumulative time granted computations spent queued, per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_queue_wait_seconds_total{tenant=%q} %g\n", "h-"+ts.Tenant, ts.QueueWait.Seconds())
	}
}
