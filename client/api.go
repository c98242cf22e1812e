package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"hcoc"
)

// Hierarchy describes a hierarchy (an event log) at its head version,
// as returned by UploadHierarchy and Hierarchies.
type Hierarchy struct {
	// ID addresses the hierarchy in release requests ("h-<fingerprint>").
	ID string `json:"id"`
	// Depth, Nodes, Groups and People summarize the head tree.
	Depth  int   `json:"depth"`
	Nodes  int   `json:"nodes"`
	Groups int64 `json:"groups"`
	People int64 `json:"people"`
	// Version and Fingerprint identify the head version (0/"" against
	// pre-event-log daemons).
	Version     int64  `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// UploadHierarchy uploads group records and builds the region tree
// server-side. Uploads are content-addressed: re-uploading the same
// groups returns the same id and costs nothing.
func (c *Client) UploadHierarchy(ctx context.Context, root string, groups []hcoc.Group) (Hierarchy, error) {
	type groupRecord struct {
		Path []string `json:"path"`
		Size int64    `json:"size"`
	}
	req := struct {
		Root   string        `json:"root"`
		Groups []groupRecord `json:"groups"`
	}{Root: root, Groups: make([]groupRecord, len(groups))}
	for i, g := range groups {
		req.Groups[i] = groupRecord{Path: g.Path, Size: g.Size}
	}
	var out Hierarchy
	err := c.do(ctx, http.MethodPost, "/v1/hierarchy", req, &out)
	return out, err
}

// Hierarchies lists the hierarchies the daemon currently holds.
func (c *Client) Hierarchies(ctx context.Context) ([]Hierarchy, error) {
	var out []Hierarchy
	err := c.do(ctx, http.MethodGet, "/v1/hierarchy", nil, &out)
	return out, err
}

// EventGroup is one group record in a hierarchy event: the leaf path
// and the group's size.
type EventGroup struct {
	Path []string `json:"path"`
	Size int64    `json:"size"`
}

// EventDrift moves Count groups at a leaf from one size to another —
// the cheap way to express a daily refresh where group memberships
// stay put but sizes move.
type EventDrift struct {
	Path  []string `json:"path"`
	From  int64    `json:"from"`
	To    int64    `json:"to"`
	Count int64    `json:"count"`
}

// Event is one hierarchy event. Type "snapshot" replaces the whole
// hierarchy (Root+Groups); type "delta" mutates it (Add/Remove/Drift).
type Event struct {
	Type   string       `json:"type"`
	Root   string       `json:"root,omitempty"`
	Groups []EventGroup `json:"groups,omitempty"`
	Add    []EventGroup `json:"add,omitempty"`
	Remove []EventGroup `json:"remove,omitempty"`
	Drift  []EventDrift `json:"drift,omitempty"`
}

// SnapshotEvent builds a snapshot event from group records.
func SnapshotEvent(root string, groups []hcoc.Group) Event {
	ev := Event{Type: "snapshot", Root: root, Groups: make([]EventGroup, len(groups))}
	for i, g := range groups {
		ev.Groups[i] = EventGroup{Path: g.Path, Size: g.Size}
	}
	return ev
}

// DeltaEvent builds a delta event.
func DeltaEvent(add, remove []EventGroup, drift []EventDrift) Event {
	return Event{Type: "delta", Add: add, Remove: remove, Drift: drift}
}

// HierarchyVersion is one immutable version of a hierarchy: the event
// sequence that produced it and the content fingerprint of its tree.
type HierarchyVersion struct {
	Version     int64     `json:"version"`
	Fingerprint string    `json:"fingerprint"`
	CreatedAt   time.Time `json:"created_at"`
	// Type is the event kind that produced the version ("snapshot" or
	// "delta").
	Type string `json:"type"`
	// Nodes and Groups summarize the version's tree.
	Nodes  int   `json:"nodes"`
	Groups int64 `json:"groups"`
}

// AppendResult reports where an event append left the hierarchy.
type AppendResult struct {
	// Hierarchy echoes the log id.
	Hierarchy string `json:"hierarchy"`
	// Applied is how many events the request applied.
	Applied int `json:"applied"`
	// Head is the resulting head version.
	Head HierarchyVersion `json:"head"`
}

// AppendEvents appends delta events to a hierarchy's log; each applied
// event is a new immutable version. ifMatch, when non-empty, is the
// expected head fingerprint: a stale value fails with
// *VersionConflictError (carrying the current head to rebase onto) and
// applies nothing.
func (c *Client) AppendEvents(ctx context.Context, hierarchy string, events []Event, ifMatch string) (AppendResult, error) {
	req := struct {
		Events []Event `json:"events"`
	}{Events: events}
	var hdr map[string]string
	if ifMatch != "" {
		hdr = map[string]string{"If-Match": `"` + strings.Trim(ifMatch, `"`) + `"`}
	}
	var out AppendResult
	err := c.doHeaders(ctx, http.MethodPost, "/v1/hierarchy/"+url.PathEscape(hierarchy)+"/events", req, &out, hdr)
	return out, err
}

// HierarchyVersions lists a hierarchy's immutable versions, oldest
// first.
func (c *Client) HierarchyVersions(ctx context.Context, hierarchy string) ([]HierarchyVersion, error) {
	var out struct {
		Versions []HierarchyVersion `json:"versions"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/hierarchy/"+url.PathEscape(hierarchy)+"/versions", nil, &out)
	return out.Versions, err
}

// ReleaseRequest parameterizes POST /v1/release. Hierarchy and Epsilon
// are required; zero values elsewhere select the server defaults
// (topdown, default K, MethodHc everywhere, weighted merge).
type ReleaseRequest struct {
	// Hierarchy is the id from UploadHierarchy.
	Hierarchy string `json:"hierarchy"`
	// Algorithm is "topdown" (default) or "bottomup".
	Algorithm string `json:"algorithm,omitempty"`
	// Epsilon is the total privacy-loss budget of this release.
	Epsilon float64 `json:"epsilon"`
	// K overrides the public group-size bound.
	K int `json:"k,omitempty"`
	// Methods gives the per-level estimation method ("hc", "hg",
	// "naive"); one entry broadcasts.
	Methods []string `json:"methods,omitempty"`
	// Merge is "weighted" (default) or "average".
	Merge string `json:"merge,omitempty"`
	// Seed makes the release reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Workers overrides the server's release parallelism.
	Workers int `json:"workers,omitempty"`
	// Version pins the hierarchy version to release (0 = head). A
	// version-pinned release stays answerable bit-for-bit after further
	// deltas move the head.
	Version int64 `json:"version,omitempty"`
}

// Release describes how a completed release request was satisfied.
type Release struct {
	// Release addresses the released histograms in queries and
	// downloads ("r-<key>").
	Release string `json:"release"`
	// Hierarchy echoes the request.
	Hierarchy string `json:"hierarchy"`
	// Algorithm and Epsilon echo what was released.
	Algorithm string  `json:"algorithm"`
	Epsilon   float64 `json:"epsilon"`
	// Nodes is the number of hierarchy nodes covered.
	Nodes int `json:"nodes"`
	// CacheHit, StoreHit and Deduped tell which tier satisfied the
	// request without a fresh computation.
	CacheHit bool `json:"cache_hit"`
	StoreHit bool `json:"store_hit"`
	Deduped  bool `json:"deduped"`
	// PeerHit is always false: daemons do not fetch artifacts from each
	// other.
	//
	// Deprecated: nothing sets it; it remains so existing callers build.
	PeerHit bool `json:"-"`
	// DurationMS is the wall time of the computation that produced the
	// release (zero for cache hits).
	DurationMS float64 `json:"duration_ms"`
	// Version and Fingerprint identify the hierarchy version released
	// (0/"" against pre-event-log daemons).
	Version     int64  `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Incremental reports whether the computation reused a prior
	// version's release state, recomputing only changed subtrees.
	Incremental bool `json:"incremental"`
	// NodesEstimated and NodesTotal count the nodes an incremental
	// computation re-estimated versus the tree total (zero when the
	// request was satisfied without computing).
	NodesEstimated int `json:"nodes_estimated,omitempty"`
	NodesTotal     int `json:"nodes_total,omitempty"`
}

// Release runs a synchronous release: the call returns when the
// histograms are computed (or served from a cache/store tier). A
// refusal for budget reasons is a *BudgetError.
func (c *Client) Release(ctx context.Context, req ReleaseRequest) (Release, error) {
	var out Release
	err := c.do(ctx, http.MethodPost, "/v1/release", req, &out)
	return out, err
}

// Job is a point-in-time snapshot of an asynchronous release job.
type Job struct {
	// Job addresses the job in polls ("j-<id>").
	Job string `json:"job"`
	// Status is "queued", "running", "done" or "failed".
	Status string `json:"status"`
	// Hierarchy echoes the submitting request (present on submission).
	Hierarchy string `json:"hierarchy,omitempty"`
	// Release addresses the completed release when Status is "done".
	Release string `json:"release,omitempty"`
	// Error is the failure message when Status is "failed".
	Error string `json:"error,omitempty"`
	// CacheHit, StoreHit and Deduped describe how a done job was
	// satisfied.
	CacheHit bool `json:"cache_hit"`
	StoreHit bool `json:"store_hit"`
	Deduped  bool `json:"deduped"`
	// DurationMS is the computation wall time of a done job.
	DurationMS float64 `json:"duration_ms"`
	// CreatedAt, StartedAt and FinishedAt timestamp the lifecycle
	// (RFC 3339; empty when not reached).
	CreatedAt  string `json:"created_at,omitempty"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`
}

// Finished reports whether the job has reached a terminal state.
func (j Job) Finished() bool { return j.Status == "done" || j.Status == "failed" }

// ReleaseAsync submits a release as a job: the daemon answers 202
// immediately and computes in the background. Poll with Job or block
// with WaitJob. Submission is refused with a retryable 503 *APIError*
// when the daemon's job table is full (the client's retry loop already
// backs off on it).
func (c *Client) ReleaseAsync(ctx context.Context, req ReleaseRequest) (Job, error) {
	body := struct {
		ReleaseRequest
		Async bool `json:"async"`
	}{req, true}
	var out Job
	err := c.do(ctx, http.MethodPost, "/v1/release", body, &out)
	return out, err
}

// Job polls one async release job.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var out Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// JobFailedError reports an async release job that finished with an
// error; the job snapshot carries the message.
type JobFailedError struct {
	// Job is the terminal snapshot, Status "failed".
	Job Job
}

// Error implements error.
func (e *JobFailedError) Error() string {
	return fmt.Sprintf("client: job %s failed: %s", e.Job.Job, e.Job.Error)
}

// WaitJob polls a job until it reaches a terminal state, every poll
// interval (0 means 100ms). A done job is returned with a nil error; a
// failed one as a *JobFailedError (with the terminal snapshot); a
// context end surfaces as the context's error.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (Job, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return Job{}, err
		}
		if j.Status == "failed" {
			return j, &JobFailedError{Job: j}
		}
		if j.Finished() {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return j, fmt.Errorf("client: %w while waiting for job %s (last status %q)", ctx.Err(), id, j.Status)
		case <-ticker.C:
		}
	}
}

// ReleaseArtifact is one durable release in the daemon's store.
type ReleaseArtifact struct {
	// Release and Hierarchy address the artifact and its tree.
	Release   string `json:"release"`
	Hierarchy string `json:"hierarchy"`
	// Algorithm and Epsilon describe the computation that produced it.
	Algorithm string  `json:"algorithm"`
	Epsilon   float64 `json:"epsilon"`
	// CostBytes is the artifact's run-accounted resident cost.
	CostBytes int64 `json:"cost_bytes"`
	// DurationMS is the original computation's wall time.
	DurationMS float64 `json:"duration_ms"`
	// CreatedAt timestamps the computation.
	CreatedAt time.Time `json:"created_at"`
}

// Releases lists the durable release artifacts (empty when the daemon
// runs without a data dir).
func (c *Client) Releases(ctx context.Context) ([]ReleaseArtifact, error) {
	var out []ReleaseArtifact
	err := c.do(ctx, http.MethodGet, "/v1/release", nil, &out)
	return out, err
}

// DownloadRelease fetches a release artifact and decodes it in
// run-length form, together with the epsilon it was released under.
func (c *Client) DownloadRelease(ctx context.Context, id string) (hcoc.SparseHistograms, float64, error) {
	var rel hcoc.SparseHistograms
	var epsilon float64
	err := c.download(ctx, "/v1/release/"+url.PathEscape(id), func(r io.Reader) error {
		var err error
		rel, epsilon, err = hcoc.ReadReleaseSparse(r)
		return err
	})
	return rel, epsilon, err
}

// DownloadReleaseBytes fetches a release artifact verbatim, without
// decoding it: format "" or "sparse" selects the run-length v2 shape,
// "dense" the v1 array shape. The gateway tier uses it to proxy
// artifacts without a redundant decode/re-encode round trip; most
// callers want DownloadRelease.
func (c *Client) DownloadReleaseBytes(ctx context.Context, id, format string) ([]byte, error) {
	path := "/v1/release/" + url.PathEscape(id)
	if format != "" {
		path += "?format=" + url.QueryEscape(format)
	}
	var out []byte
	err := c.download(ctx, path, func(r io.Reader) error {
		var err error
		out, err = io.ReadAll(r)
		return err
	})
	return out, err
}

// DownloadReleaseDense fetches a release artifact in the dense v1 array
// shape (?format=dense).
func (c *Client) DownloadReleaseDense(ctx context.Context, id string) (hcoc.Histograms, float64, error) {
	var rel hcoc.Histograms
	var epsilon float64
	err := c.download(ctx, "/v1/release/"+url.PathEscape(id)+"?format=dense", func(r io.Reader) error {
		var err error
		rel, epsilon, err = hcoc.ReadRelease(r)
		return err
	})
	return rel, epsilon, err
}

// download streams a GET body into decode, through the same retry loop
// as JSON calls.
func (c *Client) download(ctx context.Context, path string, decode func(io.Reader) error) error {
	return c.attempt(ctx, func() error {
		return c.downloadOnce(ctx, path, decode)
	})
}

func (c *Client) downloadOnce(ctx context.Context, path string, decode func(io.Reader) error) error {
	u := strings.TrimSuffix(c.base.String(), "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	req.Header.Set("User-Agent", c.userAgent)
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("client: %w", ctxErr)
		}
		return fmt.Errorf("client: GET %s: %w", path, &transportError{err})
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.responseError(resp)
	}
	return decode(resp.Body)
}

// QueryParams selects the optional statistics of a node query; group
// count, people count, mean, median and Gini are always computed.
type QueryParams struct {
	// Quantiles lists quantiles in [0, 1] to evaluate.
	Quantiles []float64
	// KthLargest lists ranks for size-of-the-kth-largest-group queries.
	KthLargest []int64
	// TopCode, when positive, requests the census-style truncated table
	// with a final "TopCode or more" bucket.
	TopCode int
}

// QuantileValue is one evaluated quantile of a node report.
type QuantileValue struct {
	Q    float64 `json:"q"`
	Size int64   `json:"size"`
}

// OrderStat is one evaluated k-th largest group size of a node report.
type OrderStat struct {
	K    int64 `json:"k"`
	Size int64 `json:"size"`
}

// NodeReport is the answer to a node query: always-computed summary
// statistics plus whatever the parameters requested. Everything is
// post-processing of the released histograms — no privacy cost.
type NodeReport struct {
	// Node is the hierarchy node path.
	Node string `json:"node"`
	// Groups and People are the released totals.
	Groups int64 `json:"groups"`
	People int64 `json:"people"`
	// Mean, Median and Gini summarize the group-size distribution
	// (zero, not an error, on a zero-group node).
	Mean   float64 `json:"mean"`
	Median int64   `json:"median"`
	Gini   float64 `json:"gini"`
	// Quantiles and KthLargest answer the requested statistics.
	Quantiles  []QuantileValue `json:"quantiles,omitempty"`
	KthLargest []OrderStat     `json:"kth_largest,omitempty"`
	// TopCoded is the truncated table when requested.
	TopCoded hcoc.Histogram `json:"topcoded,omitempty"`
}

// Query evaluates one node of a completed release.
func (c *Client) Query(ctx context.Context, release, node string, p QueryParams) (NodeReport, error) {
	q := url.Values{}
	q.Set("release", release)
	for _, v := range p.Quantiles {
		q.Add("q", strconv.FormatFloat(v, 'g', -1, 64))
	}
	for _, k := range p.KthLargest {
		q.Add("k", strconv.FormatInt(k, 10))
	}
	if p.TopCode > 0 {
		q.Set("topcode", strconv.Itoa(p.TopCode))
	}
	var out NodeReport
	err := c.do(ctx, http.MethodGet, "/v1/query/"+escapeNodePath(node)+"?"+q.Encode(), nil, &out)
	return out, err
}

// escapeNodePath escapes a hierarchy node path for the URL while
// keeping its level separators.
func escapeNodePath(node string) string {
	segs := strings.Split(node, "/")
	for i, seg := range segs {
		segs[i] = url.PathEscape(seg)
	}
	return strings.Join(segs, "/")
}

// NodeQuery is one entry of a batch query. A plain entry (no Op, no
// Releases) evaluates node statistics against the batch's release; the
// cross-release aggregates name an op and the releases they read.
type NodeQuery struct {
	// Op selects the aggregate: "" or "stats" (node statistics, one
	// release), "emd" (drift between two releases), "delta" (group and
	// people count change between two releases), "series" (node
	// statistics across an ordered list of releases) or "compare" (two
	// full side-by-side reports, e.g. an hc release against an hg one).
	Op string `json:"op,omitempty"`
	// Releases lists the release ids the entry reads; empty means the
	// batch's release.
	Releases []string `json:"releases,omitempty"`
	// Node is the hierarchy node path to evaluate.
	Node string `json:"node"`
	// Quantiles, KthLargest and TopCode mirror QueryParams.
	Quantiles  []float64 `json:"q,omitempty"`
	KthLargest []int64   `json:"k,omitempty"`
	TopCode    int       `json:"topcode,omitempty"`
}

// SeriesPoint is one release's node report within a "series" result.
type SeriesPoint struct {
	// Release is the release id the point was evaluated on.
	Release string `json:"release"`
	NodeReport
}

// NodeResult is one result of a batch query: the payload of the entry's
// aggregate, or the error that failed this query alone. Stats entries
// fill the embedded NodeReport; cross-release entries fill the field
// matching their op.
type NodeResult struct {
	NodeReport
	// Op and Releases echo the entry as sent.
	Op       string   `json:"op,omitempty"`
	Releases []string `json:"releases,omitempty"`
	// EMD is the earthmover's distance of an "emd" entry.
	EMD *int64 `json:"emd,omitempty"`
	// GroupsDelta and PeopleDelta answer "emd" and "delta" entries:
	// second release minus first.
	GroupsDelta *int64 `json:"groups_delta,omitempty"`
	PeopleDelta *int64 `json:"people_delta,omitempty"`
	// Series answers a "series" entry, index-aligned with its releases.
	Series []SeriesPoint `json:"series,omitempty"`
	// Left and Right answer a "compare" entry, in its release order.
	Left  *NodeReport `json:"left,omitempty"`
	Right *NodeReport `json:"right,omitempty"`
	// Error names why this query failed; empty on success.
	Error string `json:"error,omitempty"`
}

// BatchQuery evaluates many queries in a single round trip and a single
// engine pass server-side: the daemon's scan-sharing planner fetches
// each distinct release once however many queries read it. release is
// the default for entries naming no releases of their own ("" is valid
// when every entry does). Results are index-aligned with the queries;
// per-query failures are reported in NodeResult.Error and do not fail
// the batch.
func (c *Client) BatchQuery(ctx context.Context, release string, queries []NodeQuery) ([]NodeResult, error) {
	req := struct {
		Release string      `json:"release"`
		Queries []NodeQuery `json:"queries"`
	}{Release: release, Queries: queries}
	var out struct {
		Results []NodeResult `json:"results"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/query/batch", req, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(queries) {
		return nil, fmt.Errorf("client: batch returned %d results for %d queries", len(out.Results), len(queries))
	}
	return out.Results, nil
}

// Budget is a hierarchy's privacy-budget position.
type Budget struct {
	// Hierarchy is the id the position describes.
	Hierarchy string `json:"hierarchy"`
	// SpentEpsilon is the cumulative epsilon of actual computations.
	SpentEpsilon float64 `json:"spent_epsilon"`
	// RemainingEpsilon is what is still spendable under the bound
	// (zero when unenforced).
	RemainingEpsilon float64 `json:"remaining_epsilon"`
	// MaxEpsilonPerHierarchy is the daemon's configured bound (zero
	// when unenforced).
	MaxEpsilonPerHierarchy float64 `json:"max_epsilon_per_hierarchy"`
	// Enforced reports whether the daemon refuses over-budget releases.
	Enforced bool `json:"enforced"`
	// Versions breaks the spend down per immutable hierarchy version
	// (empty against pre-event-log daemons).
	Versions []VersionBudget `json:"versions,omitempty"`
	// ContinualSpentEpsilon and ContinualRemainingEpsilon describe the
	// continual-observation account, which sums spend across every
	// version of the hierarchy's event log.
	ContinualSpentEpsilon     float64 `json:"continual_spent_epsilon"`
	ContinualRemainingEpsilon float64 `json:"continual_remaining_epsilon"`
	// MaxEpsilonContinual is the daemon's continual bound (zero when
	// unenforced).
	MaxEpsilonContinual float64 `json:"max_epsilon_continual"`
	// ContinualEnforced reports whether the continual bound refuses
	// over-budget releases.
	ContinualEnforced bool `json:"continual_enforced"`
}

// VersionBudget is one version's share of a hierarchy's privacy spend.
type VersionBudget struct {
	Version      int64   `json:"version"`
	Fingerprint  string  `json:"fingerprint"`
	SpentEpsilon float64 `json:"spent_epsilon"`
}

// Budget reads a hierarchy's privacy-budget position without spending
// anything.
func (c *Client) Budget(ctx context.Context, hierarchy string) (Budget, error) {
	var out Budget
	err := c.do(ctx, http.MethodGet, "/v1/budget/"+url.PathEscape(hierarchy), nil, &out)
	return out, err
}

// TenantStatus is one tenant (hierarchy) in the daemon's QoS report:
// its scheduling weight, live queue occupancy, admission counters, and
// how its requests were satisfied.
type TenantStatus struct {
	// Tenant is the hierarchy id ("h-<fingerprint>").
	Tenant string `json:"tenant"`
	// Weight is the tenant's share of the compute pool under
	// contention (default 1).
	Weight float64 `json:"weight"`
	// Active and Queued are the tenant's live compute occupancy.
	Active int `json:"active"`
	Queued int `json:"queued"`
	// Granted, Rejected and Cancelled count admission outcomes.
	Granted   uint64 `json:"granted"`
	Rejected  uint64 `json:"rejected"`
	Cancelled uint64 `json:"cancelled"`
	// QueueWaitMS is cumulative time the tenant's granted jobs spent
	// queued.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// Requests through Computed break down how release requests were
	// satisfied.
	Requests  uint64 `json:"requests"`
	CacheHits uint64 `json:"cache_hits"`
	Deduped   uint64 `json:"deduped"`
	StoreHits uint64 `json:"store_hits"`
	Computed  uint64 `json:"computed"`
	// EpsilonSpent is the tenant's cumulative privacy spend.
	EpsilonSpent float64 `json:"epsilon_spent"`
}

// TenantsStatus is the daemon's whole QoS picture: the compute pool,
// the read lane, and every known tenant.
type TenantsStatus struct {
	// ComputeSlots and InUse describe the shared compute pool.
	ComputeSlots int `json:"compute_slots"`
	InUse        int `json:"in_use"`
	// QueueDepth is the per-tenant queue bound; Queued and Rejected
	// aggregate across tenants.
	QueueDepth int    `json:"queue_depth"`
	Queued     int    `json:"queued"`
	Rejected   uint64 `json:"rejected"`
	// ActiveReads and Reads describe the priority read lane, which
	// never waits behind compute.
	ActiveReads uint64 `json:"active_reads"`
	Reads       uint64 `json:"reads"`
	// Tenants is sorted by tenant id.
	Tenants []TenantStatus `json:"tenants"`
}

// Tenants reads the daemon's per-tenant QoS state: who holds and waits
// for compute slots, who is being refused, and at what weight each
// tenant shares the pool.
func (c *Client) Tenants(ctx context.Context) (TenantsStatus, error) {
	var out TenantsStatus
	err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &out)
	return out, err
}

// Healthz checks daemon liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the daemon's Prometheus text metrics verbatim.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var out []byte
	err := c.download(ctx, "/metrics", func(r io.Reader) error {
		var err error
		out, err = io.ReadAll(r)
		return err
	})
	return string(out), err
}

// IsNotFound reports whether err is the daemon saying a resource does
// not exist (unknown hierarchy, uncached release, evicted job).
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound
}
