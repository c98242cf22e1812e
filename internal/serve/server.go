package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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
	"hcoc/internal/hierarchy"
	"hcoc/internal/httpx"
	"hcoc/internal/noise"
	"hcoc/internal/store"
)

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
		maxBody:  httpx.MaxBodyBytes,
		maxTrees: maxHierarchies,
	}
	s.mux = httpx.NewMux(s.Routes())
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

// Routes lists every endpoint with its handler: the single source of
// truth for registration, which the OpenAPI coverage test also uses to
// fail the build when docs/openapi.yaml misses a route.
func (s *Server) Routes() []httpx.Route {
	return []httpx.Route{
		{Method: "POST", Pattern: "/v1/hierarchy", Handler: s.handleHierarchy},
		{Method: "GET", Pattern: "/v1/hierarchy", Handler: s.handleListHierarchies},
		{Method: "POST", Pattern: "/v1/hierarchy/{id}/events", Handler: s.handleAppendEvents},
		{Method: "GET", Pattern: "/v1/hierarchy/{id}/versions", Handler: s.handleVersions},
		{Method: "POST", Pattern: "/v1/release", Handler: s.handleRelease},
		{Method: "GET", Pattern: "/v1/release", Handler: s.handleListReleases},
		{Method: "GET", Pattern: "/v1/release/{id}", Handler: s.handleGetRelease},
		{Method: "GET", Pattern: "/v1/jobs/{id}", Handler: s.handleGetJob},
		{Method: "POST", Pattern: "/v1/query/batch", Handler: s.handleBatchQuery},
		{Method: "GET", Pattern: "/v1/query/{node...}", Handler: s.handleQuery},
		{Method: "GET", Pattern: "/v1/budget/{id}", Handler: s.handleBudget},
		{Method: "GET", Pattern: "/v1/tenants", Handler: s.handleTenants},
		{Method: "GET", Pattern: "/healthz", Handler: s.handleHealthz},
		{Method: "GET", Pattern: "/metrics", Handler: s.handleMetrics},
	}
}

// ServeHTTP implements http.Handler under both sides of the shared
// transport conventions (httpx.WrapRequest, httpx.CompressResponse).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r, release, ok := httpx.WrapRequest(w, r, s.maxBody)
	if !ok {
		return
	}
	defer release()
	w, finish := httpx.CompressResponse(w, r)
	defer finish()
	s.mux.ServeHTTP(w, r)
}

// checkEvent applies checkGroup to every group an event names.
func checkEvent(rec client.Event) error {
	for _, gs := range [][]client.EventGroup{rec.Groups, rec.Remove, rec.Add} {
		for _, g := range gs {
			if err := hierarchy.CheckGroup(g.Path, g.Size); err != nil {
				return err
			}
		}
	}
	for _, d := range rec.Drift {
		if err := hierarchy.CheckGroup(d.Path, d.From); err != nil {
			return err
		}
		if err := hierarchy.CheckGroup(d.Path, d.To); err != nil {
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
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	if req.Root == "" {
		req.Root = "root"
	}
	groups := make([]hcoc.Group, len(req.Groups))
	for i, g := range req.Groups {
		groups[i] = hcoc.Group{Path: g.Path, Size: g.Size}
	}
	if err := hierarchy.CheckUpload(groups); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	l, _, err := s.logs.CreateWithin(req.Root, groups, s.maxTrees)
	if errors.Is(err, eventlog.ErrFull) {
		httpx.WriteError(w, http.StatusInsufficientStorage,
			"hierarchy store is full (%d); re-use an uploaded hierarchy or restart the server", s.maxTrees)
		return
	}
	if err != nil {
		httpx.WriteError(w, http.StatusInternalServerError, "establishing event log: %v", err)
		return
	}

	w.Header().Set("Deprecation", "true")
	w.Header().Set("Link", fmt.Sprintf("</v1/hierarchy/h-%s/events>; rel=\"successor-version\"", l.ID()))
	httpx.WriteJSON(w, http.StatusOK, logResponse(l))
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
	httpx.WriteJSON(w, http.StatusOK, out)
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
		httpx.WriteError(w, http.StatusNotFound, "unknown hierarchy %q; POST /v1/hierarchy first", r.PathValue("id"))
		return
	}
	var req appendEventsRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	if len(req.Events) == 0 {
		httpx.WriteError(w, http.StatusBadRequest, "no events in request")
		return
	}
	ifMatch := strings.Trim(r.Header.Get("If-Match"), `"`)
	var head eventlog.Version
	for i, rec := range req.Events {
		if err := checkEvent(rec); err != nil {
			httpx.WriteError(w, http.StatusBadRequest, "event %d (after %d applied): %v", i, i, err)
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
				httpx.WriteJSON(w, http.StatusConflict, conflictResponse{
					Error:           err.Error(),
					Code:            "version_conflict",
					Hierarchy:       "h-" + l.ID(),
					HeadVersion:     conflict.Head.Seq,
					HeadFingerprint: conflict.Head.Fingerprint,
					Given:           conflict.Given,
				})
				return
			}
			httpx.WriteError(w, http.StatusBadRequest, "event %d (after %d applied): %v", i, i, err)
			return
		}
		head = v
	}
	httpx.WriteJSON(w, http.StatusOK, client.AppendResult{
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
		httpx.WriteError(w, http.StatusNotFound, "unknown hierarchy %q; POST /v1/hierarchy first", r.PathValue("id"))
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
	httpx.WriteJSON(w, http.StatusOK, out)
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
		httpx.WriteJSON(w, http.StatusTooManyRequests, budgetResponse{
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
		httpx.WriteJSON(w, http.StatusTooManyRequests, overloadResponse{
			Error:             err.Error(),
			Code:              "overload",
			Hierarchy:         "h-" + ov.Tenant,
			QueueDepth:        ov.QueueDepth,
			RetryAfterSeconds: secs,
		})
		return
	}
	httpx.WriteError(w, http.StatusInternalServerError, "release failed: %v", err)
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
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	l, ok := s.logs.Get(hierarchyID(req.Hierarchy))
	if !ok {
		httpx.WriteError(w, http.StatusNotFound, "unknown hierarchy %q; POST /v1/hierarchy first", req.Hierarchy)
		return
	}
	if req.Version < 0 {
		httpx.WriteError(w, http.StatusBadRequest, "version must be nonnegative, got %d (0 selects the head)", req.Version)
		return
	}
	tree, ver, err := l.Tree(req.Version)
	if err != nil {
		httpx.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	alg, err := engine.ParseAlgorithm(req.Algorithm)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	methods, err := parseMethods(req.Methods)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	merge, err := parseMerge(req.Merge)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Refused here, before the engine charges anything: top-down gives
	// each level of the tree an equal share of the budget.
	levels := 1
	if alg == engine.TopDown {
		levels = tree.Depth()
	}
	if err := noise.CheckEpsilon(req.Epsilon, levels); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.K < 0 || req.K > hcoc.MaxGroupSize {
		httpx.WriteError(w, http.StatusBadRequest, "k must lie in [0, %d], got %d (0 selects the default)", hcoc.MaxGroupSize, req.K)
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
			httpx.WriteError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/j-"+job.ID)
		httpx.WriteJSON(w, http.StatusAccepted, client.Job{
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
	httpx.WriteJSON(w, http.StatusOK, client.Release{
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
		httpx.WriteError(w, http.StatusNotFound, "unknown job; it may have been evicted after completion")
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
	httpx.WriteJSON(w, http.StatusOK, resp)
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
			httpx.WriteError(w, http.StatusNotFound, "unknown hierarchy %q", q.Get("hierarchy"))
			return
		}
		filter = make(map[string]bool)
		if raw := q.Get("version"); raw != "" {
			seq, err := strconv.ParseInt(raw, 10, 64)
			if err != nil || seq < 0 {
				httpx.WriteError(w, http.StatusBadRequest, "bad version %q (want a nonnegative integer)", raw)
				return
			}
			v, ok := l.Version(seq)
			if !ok {
				httpx.WriteError(w, http.StatusNotFound, "hierarchy h-%s has no version %d (head is %d)", l.ID(), seq, l.Head().Seq)
				return
			}
			filter[v.Fingerprint] = true
		} else {
			for _, fp := range l.Fingerprints() {
				filter[fp] = true
			}
		}
	} else if q.Get("version") != "" {
		httpx.WriteError(w, http.StatusBadRequest, "version filter requires a hierarchy filter")
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
	httpx.WriteJSON(w, http.StatusOK, out)
}

// releaseID strips the "r-" prefix release keys are served with.
func releaseID(id string) string {
	if len(id) > 2 && id[:2] == "r-" {
		return id[2:]
	}
	return id
}

// serveArtifact writes a release artifact body with the full
// conditional-download contract: exact Content-Length, Accept-Ranges
// with single- and malformed-Range handling (206/416), If-None-Match
// against the strong ETag (304), and If-Modified-Since when modTime is
// known.
func serveArtifact(w http.ResponseWriter, r *http.Request, etag string, modTime time.Time, content io.ReadSeeker) {
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
		httpx.WriteError(w, http.StatusBadRequest, "unknown artifact format %q (want sparse|dense)", format)
		return
	}

	// Zero-copy fast path: the sparse artifact is stored verbatim, so a
	// durable hit streams the backend's ReadSeeker straight into
	// ServeContent — no decode, no re-encode, no buffering of the body.
	if format != "dense" && s.st != nil {
		if f, _, m, err := s.st.OpenRelease(key); err == nil {
			defer f.Close()
			serveArtifact(w, r, releaseETag(key, format), m.CreatedAt, f)
			return
		}
	}

	// Buffered fallback: cache-only releases (no durable store) and the
	// dense rendering, which only exists on demand. Sparse reads through
	// both tiers: the LRU first, then the durable store (admitting a hit
	// back into the LRU). Serialize before writing so a failure is a
	// clean 500, never a 200 with a truncated artifact; serving the
	// buffer through serveArtifact keeps ETag/Range semantics identical
	// to the zero-copy path.
	rel, epsilon, err := s.eng.Sparse(key)
	if err != nil {
		httpx.WriteError(w, http.StatusNotFound, "release not cached or stored; POST /v1/release to (re)compute it")
		return
	}
	var buf bytes.Buffer
	if format == "dense" {
		err = hcoc.WriteRelease(&buf, rel.Dense(), epsilon)
	} else {
		err = hcoc.WriteReleaseSparse(&buf, rel, epsilon)
	}
	if err != nil {
		httpx.WriteError(w, http.StatusInternalServerError, "writing artifact: %v", err)
		return
	}
	serveArtifact(w, r, releaseETag(key, format), time.Time{}, bytes.NewReader(buf.Bytes()))
}

// parseQueryParams parses the q/k/topcode statistics selectors of a
// node query, writing the 400 itself on bad input; ok reports whether
// the handler should proceed.
func parseQueryParams(w http.ResponseWriter, q url.Values) (quantiles []float64, kth []int64, topCode int, ok bool) {
	for _, raw := range q["q"] {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			httpx.WriteError(w, http.StatusBadRequest, "bad quantile %q", raw)
			return nil, nil, 0, false
		}
		quantiles = append(quantiles, v)
	}
	for _, raw := range q["k"] {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			httpx.WriteError(w, http.StatusBadRequest, "bad rank %q", raw)
			return nil, nil, 0, false
		}
		kth = append(kth, v)
	}
	if raw := q.Get("topcode"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			httpx.WriteError(w, http.StatusBadRequest, "bad topcode %q (want a positive integer)", raw)
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
		httpx.WriteError(w, http.StatusNotFound, "unknown hierarchy %q", hierarchy)
		return "", false
	}
	var seq int64
	if version != "" {
		v, err := strconv.ParseInt(version, 10, 64)
		if err != nil || v < 0 {
			httpx.WriteError(w, http.StatusBadRequest, "bad version %q (want a nonnegative integer)", version)
			return "", false
		}
		seq = v
	}
	ver, ok := l.Version(seq)
	if !ok {
		httpx.WriteError(w, http.StatusNotFound, "hierarchy h-%s has no version %d (head is %d)", l.ID(), seq, l.Head().Seq)
		return "", false
	}
	var latest store.Meta
	found := false
	if s.st != nil {
		latest, found = s.st.LatestRelease(ver.Fingerprint)
	}
	if !found {
		httpx.WriteError(w, http.StatusNotFound,
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
		httpx.WriteError(w, http.StatusBadRequest, "missing release query parameter (or hierarchy+version)")
		return
	}
	quantiles, kth, topCode, ok := parseQueryParams(w, q)
	if !ok {
		return
	}
	entry := client.NodeQuery{Node: node, Quantiles: quantiles, KthLargest: kth, TopCode: topCode}
	qs, err := lower(key, []client.NodeQuery{entry})
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	res := s.eng.Query(qs[0])
	switch {
	case errors.Is(res.Err, engine.ErrNotCached):
		httpx.WriteError(w, http.StatusNotFound, "release not cached; POST /v1/release to (re)compute it")
		return
	case res.Err != nil:
		httpx.WriteError(w, http.StatusBadRequest, "%v", res.Err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, reportToQueryResponse(entry, *res.Report))
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
	httpx.WriteJSON(w, http.StatusOK, resp)
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
	httpx.WriteJSON(w, http.StatusOK, healthzResponse{
		Status:      "ok",
		Instance:    s.eng.ID(),
		Hierarchies: hierarchies,
		Inflight:    s.eng.Metrics().InFlight,
	})
}

// handleMetrics exposes the engine counters in the Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics()
	logs := s.logs.Logs()
	hierarchies := len(logs)
	var versions int64
	for _, l := range logs {
		versions += l.Head().Seq
	}

	x := httpx.NewMetrics(w)
	x.Scalar("hcoc_cache_hits_total", "Release requests answered from the cache.", m.CacheHits)
	x.Scalar("hcoc_cache_misses_total", "Release requests that started a computation.", m.CacheMisses)
	x.Scalar("hcoc_deduped_total", "Release requests coalesced onto an in-flight computation.", m.Deduped)
	x.Scalar("hcoc_cache_hit_rate", "Fraction of release requests answered from the cache.", m.HitRate())
	x.Scalar("hcoc_cache_entries", "Completed releases currently cached.", m.CacheEntries)
	x.Scalar("hcoc_cache_capacity", "LRU capacity in releases.", m.CacheCapacity)
	x.Scalar("hcoc_cache_cost_bytes", "Estimated resident bytes of cached releases (run accounting).", m.CacheCostBytes)
	x.Scalar("hcoc_cache_budget_bytes", "Byte budget of the release cache (0 = unbudgeted).", m.CacheBudgetBytes)
	x.Scalar("hcoc_cache_runs", "Total histogram runs held across cached releases.", m.CacheRuns)
	x.Scalar("hcoc_cache_evictions_total", "Completed releases evicted by the LRU.", m.Evictions)
	x.Scalar("hcoc_store_hits_total", "Reads served from the durable store without recomputation.", m.StoreHits)
	x.Scalar("hcoc_store_puts_total", "Releases written through to the durable store.", m.StorePuts)
	x.Scalar("hcoc_store_errors_total", "Failed durable-store reads/writes (request still served).", m.StoreErrors)
	x.Scalar("hcoc_store_artifacts", "Releases held by the durable store.", m.StoreArtifacts)
	backend, shared := "none", false
	if s.st != nil {
		backend, shared = s.st.Backend(), s.st.Shared()
	}
	x.Family("hcoc_store_backend_info", "Configured blob backend (constant 1; the labels carry the information).")
	x.Sample("hcoc_store_backend_info", 1, "backend", backend, "shared", strconv.FormatBool(shared))
	x.Scalar("hcoc_epsilon_spent_total", "Cumulative epsilon of actual computations across hierarchies.", m.EpsilonSpent)
	x.Scalar("hcoc_epsilon_spent_local", "Epsilon drawn by this process (excludes spend replayed from the store manifest).", m.EpsilonSpentLocal)
	x.Scalar("hcoc_epsilon_limit_per_hierarchy", "Configured per-hierarchy epsilon bound (0 = unenforced).", m.EpsilonLimit)
	x.Scalar("hcoc_jobs", "Async release jobs currently retained.", s.jobs.Len())
	x.Scalar("hcoc_releases_total", "Completed release computations.", m.Releases)
	x.Scalar("hcoc_inflight_releases", "Release computations running now.", m.InFlight)
	x.Scalar("hcoc_queries_total", "Node query reads served (batch entries counted individually).", m.Queries)
	x.Scalar("hcoc_batch_queries_total", "Batch query requests served, each one engine pass.", m.Batches)
	x.Scalar("hcoc_release_seconds_total", "Cumulative release computation time.", m.ReleaseTotal.Seconds())
	x.Scalar("hcoc_release_seconds_last", "Duration of the most recent release computation.", m.LastRelease.Seconds())
	x.Scalar("hcoc_hierarchies", "Hierarchies (event logs) currently loaded.", hierarchies)
	x.Scalar("hcoc_hierarchy_versions", "Immutable hierarchy versions across all event logs.", versions)
	x.Scalar("hcoc_incremental_releases_total", "Release computations that reused retained state from a prior version.", m.IncrementalReleases)
	x.Scalar("hcoc_recompute_nodes_estimated_total", "Nodes re-estimated across incremental-capable computations.", m.RecomputeNodesEstimated)
	x.Scalar("hcoc_recompute_nodes_total", "Nodes visited across incremental-capable computations.", m.RecomputeNodesTotal)
	x.Scalar("hcoc_recompute_parents_matched_total", "Parent rerun-matching passes executed across incremental-capable computations.", m.RecomputeParentsMatched)
	x.Scalar("hcoc_recompute_parents_total", "Parent nodes visited across incremental-capable computations.", m.RecomputeParentsTotal)
	x.Scalar("hcoc_release_states", "Per-release recompute states currently retained.", m.StateEntries)
	x.Scalar("hcoc_release_state_cost_bytes", "Estimated resident bytes of retained recompute states.", m.StateCostBytes)
	x.Scalar("hcoc_epsilon_limit_continual", "Configured continual-observation epsilon bound per hierarchy (0 = unenforced).", m.EpsilonLimitContinual)

	// Compute scheduler: pool state, the read priority lane, and one
	// labeled series set per tenant.
	snap := s.eng.Scheduler().Snapshot()
	x.Scalar("hcoc_compute_slots", "Compute slots in the release pool.", snap.Slots)
	x.Scalar("hcoc_compute_slots_in_use", "Compute slots held by running computations.", snap.InUse)
	x.Scalar("hcoc_compute_queue_depth", "Per-tenant compute queue bound.", snap.QueueDepth)
	x.Scalar("hcoc_compute_queued", "Release computations queued for a slot across tenants.", snap.Queued)
	x.Scalar("hcoc_compute_rejected_total", "Release requests refused at admission (queue full).", snap.Rejected)
	x.Scalar("hcoc_read_lane_active", "Reads in flight on the priority lane (never queued behind compute).", snap.ActiveReads)
	x.Scalar("hcoc_read_lane_reads_total", "Lifetime reads admitted on the priority lane.", snap.Reads)

	stats := s.eng.TenantStats()
	for _, f := range []struct {
		name, help string
		value      func(engine.TenantStat) any
	}{
		{"hcoc_tenant_requests_total", "Release requests per tenant (hierarchy), however satisfied.", func(ts engine.TenantStat) any { return ts.Requests }},
		{"hcoc_tenant_computed_total", "Release computations per tenant.", func(ts engine.TenantStat) any { return ts.Computed }},
		{"hcoc_tenant_deduped_total", "Requests coalesced onto in-flight computations, per tenant.", func(ts engine.TenantStat) any { return ts.Deduped }},
		{"hcoc_tenant_rejected_total", "Admission refusals (queue full) per tenant.", func(ts engine.TenantStat) any { return ts.Rejected }},
		{"hcoc_tenant_queued", "Release computations queued now, per tenant.", func(ts engine.TenantStat) any { return ts.Queued }},
		{"hcoc_tenant_active", "Compute slots held now, per tenant.", func(ts engine.TenantStat) any { return ts.Active }},
		{"hcoc_tenant_weight", "Configured fair-share weight per tenant.", func(ts engine.TenantStat) any { return ts.Weight }},
		{"hcoc_tenant_queue_wait_seconds_total", "Cumulative time granted computations spent queued, per tenant.", func(ts engine.TenantStat) any { return ts.QueueWait.Seconds() }},
	} {
		x.Family(f.name, f.help)
		for _, ts := range stats {
			x.Sample(f.name, f.value(ts), "tenant", "h-"+ts.Tenant)
		}
	}
}
