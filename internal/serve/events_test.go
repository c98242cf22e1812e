package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
)

// postEvents appends events to a hierarchy log with an optional
// If-Match precondition, returning the raw status and body.
func postEvents(t *testing.T, ts *httptest.Server, id string, req appendEventsRequest, ifMatch string) (int, string) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/hierarchy/"+id+"/events", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if ifMatch != "" {
		hreq.Header.Set("If-Match", ifMatch)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// getVersions lists a hierarchy's versions, failing on a non-200.
func getVersions(t *testing.T, ts *httptest.Server, id string) versionsResponse {
	t.Helper()
	var vr versionsResponse
	if status, body := getJSON(t, ts.URL+"/v1/hierarchy/"+id+"/versions", &vr); status != http.StatusOK {
		t.Fatalf("versions: status %d: %s", status, body)
	}
	return vr
}

// TestServeAppendEventsAndVersions: a delta append produces a new
// immutable version with a distinct fingerprint, the versions listing
// records the full history oldest-first, and the hierarchy listing
// reports the moved head.
func TestServeAppendEventsAndVersions(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	hr := uploadGroups(t, ts, "US", smallGroups())
	if hr.Version != 1 || hr.Fingerprint == "" {
		t.Fatalf("snapshot upload = version %d fingerprint %q, want version 1", hr.Version, hr.Fingerprint)
	}

	status, body := postEvents(t, ts, hr.ID, appendEventsRequest{Events: []client.Event{
		{Type: "delta", Add: []client.EventGroup{{Path: []string{"OR"}, Size: 3}}},
	}}, "")
	if status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, body)
	}
	var ar client.AppendResult
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatalf("parsing append response %q: %v", body, err)
	}
	if ar.Hierarchy != hr.ID || ar.Applied != 1 {
		t.Fatalf("append response = %+v", ar)
	}
	if ar.Head.Version != 2 || ar.Head.Type != "delta" {
		t.Fatalf("head after delta = %+v, want version 2 type delta", ar.Head)
	}
	if ar.Head.Fingerprint == "" || ar.Head.Fingerprint == hr.Fingerprint {
		t.Fatalf("delta fingerprint %q did not move off snapshot %q", ar.Head.Fingerprint, hr.Fingerprint)
	}

	vr := getVersions(t, ts, hr.ID)
	if vr.Hierarchy != hr.ID || vr.Root != "US" || vr.Head != 2 || len(vr.Versions) != 2 {
		t.Fatalf("versions = %+v", vr)
	}
	if vr.Versions[0].Type != "snapshot" || vr.Versions[0].Fingerprint != hr.Fingerprint {
		t.Fatalf("version 1 = %+v, want the snapshot", vr.Versions[0])
	}
	if vr.Versions[1] != ar.Head {
		t.Fatalf("version 2 = %+v, want the append head %+v", vr.Versions[1], ar.Head)
	}
	if vr.Versions[1].Groups != vr.Versions[0].Groups+1 {
		t.Fatalf("delta added one group: %d -> %d", vr.Versions[0].Groups, vr.Versions[1].Groups)
	}

	// The hierarchy listing reflects the new head, same id.
	var list []client.Hierarchy
	if status, body := getJSON(t, ts.URL+"/v1/hierarchy", &list); status != http.StatusOK {
		t.Fatalf("list: status %d: %s", status, body)
	}
	if len(list) != 1 || list[0].ID != hr.ID || list[0].Version != 2 || list[0].Fingerprint != ar.Head.Fingerprint {
		t.Fatalf("hierarchy listing = %+v", list)
	}
}

// TestServeAppendEventsIfMatch: the If-Match precondition gates the
// first event of a batch — a stale fingerprint is a 409 naming the
// head to rebase onto, with nothing applied; the current fingerprint
// (quoted or bare) lets a multi-event batch through.
func TestServeAppendEventsIfMatch(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	hr := uploadGroups(t, ts, "US", smallGroups())

	// Stale precondition: conflict, log untouched.
	status, body := postEvents(t, ts, hr.ID, appendEventsRequest{Events: []client.Event{
		{Type: "delta", Add: []client.EventGroup{{Path: []string{"OR"}, Size: 1}}},
	}}, `"deadbeef"`)
	if status != http.StatusConflict {
		t.Fatalf("stale If-Match: status %d: %s", status, body)
	}
	var cr conflictResponse
	if err := json.Unmarshal([]byte(body), &cr); err != nil {
		t.Fatalf("parsing 409 body %q: %v", body, err)
	}
	if cr.Code != "version_conflict" || cr.Hierarchy != hr.ID || cr.Given != "deadbeef" {
		t.Fatalf("409 body = %+v", cr)
	}
	if cr.HeadVersion != 1 || cr.HeadFingerprint != hr.Fingerprint {
		t.Fatalf("409 head = %d %q, want 1 %q", cr.HeadVersion, cr.HeadFingerprint, hr.Fingerprint)
	}
	if vr := getVersions(t, ts, hr.ID); vr.Head != 1 {
		t.Fatalf("conflicted append moved the head to %d", vr.Head)
	}

	// Matching quoted precondition admits a two-event batch: the header
	// conditions the first event; the second chains unconditionally.
	status, body = postEvents(t, ts, hr.ID, appendEventsRequest{Events: []client.Event{
		{Type: "delta", Add: []client.EventGroup{{Path: []string{"OR"}, Size: 1}}},
		{Type: "delta", Add: []client.EventGroup{{Path: []string{"NV"}, Size: 2}}},
	}}, `"`+hr.Fingerprint+`"`)
	if status != http.StatusOK {
		t.Fatalf("matching If-Match: status %d: %s", status, body)
	}
	var ar client.AppendResult
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Applied != 2 || ar.Head.Version != 3 {
		t.Fatalf("batch append = %+v, want 2 applied, head 3", ar)
	}
}

// TestServeAppendEventsErrors covers the failure edges: unknown log,
// empty batch, and an invalid event mid-batch that keeps the versions
// the earlier events already produced.
func TestServeAppendEventsErrors(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	hr := uploadGroups(t, ts, "US", smallGroups())

	status, body := postEvents(t, ts, "h-missing", appendEventsRequest{Events: []client.Event{
		{Type: "delta", Add: []client.EventGroup{{Path: []string{"OR"}, Size: 1}}},
	}}, "")
	if status != http.StatusNotFound || !strings.Contains(body, "not_found") {
		t.Fatalf("unknown hierarchy: status %d: %s", status, body)
	}

	status, body = postEvents(t, ts, hr.ID, appendEventsRequest{}, "")
	if status != http.StatusBadRequest || !strings.Contains(body, "bad_request") {
		t.Fatalf("empty batch: status %d: %s", status, body)
	}

	// Event 0 applies, event 1 is rejected: the error names the index
	// and the log keeps the version event 0 produced.
	status, body = postEvents(t, ts, hr.ID, appendEventsRequest{Events: []client.Event{
		{Type: "delta", Add: []client.EventGroup{{Path: []string{"OR"}, Size: 1}}},
		{Type: "bogus"},
	}}, "")
	if status != http.StatusBadRequest || !strings.Contains(body, "event 1") {
		t.Fatalf("mid-batch invalid event: status %d: %s", status, body)
	}
	if vr := getVersions(t, ts, hr.ID); vr.Head != 2 {
		t.Fatalf("head after partial batch = %d, want 2 (event 0 kept)", vr.Head)
	}

	// Sizes above hcoc.MaxGroupSize and region names containing "/" are
	// refused before the log sees them; the head does not move.
	for name, ev := range map[string]client.Event{
		"add above the size bound":   {Type: "delta", Add: []client.EventGroup{{Path: []string{"OR"}, Size: hcoc.MaxGroupSize + 1}}},
		"drift above the size bound": {Type: "delta", Drift: []client.EventDrift{{Path: []string{"OR"}, From: 1, To: hcoc.MaxGroupSize + 1, Count: 1}}},
		"region name with a slash":   {Type: "delta", Add: []client.EventGroup{{Path: []string{"OR/Lane"}, Size: 1}}},
		"snapshot name with a slash": {Type: "snapshot", Root: "US", Groups: []client.EventGroup{{Path: []string{"OR/Lane"}, Size: 1}}},
	} {
		status, body := postEvents(t, ts, hr.ID, appendEventsRequest{Events: []client.Event{ev}}, "")
		if status != http.StatusBadRequest || !strings.Contains(body, "event 0") {
			t.Errorf("%s: status %d: %s", name, status, body)
		}
	}
	if vr := getVersions(t, ts, hr.ID); vr.Head != 2 {
		t.Fatalf("head after refused events = %d, want 2", vr.Head)
	}
}

// TestServeVersionPinnedRelease: releasing a pinned old version after
// the hierarchy moved on returns the identical artifact (a cache hit on
// the same release key), and releasing the new head reuses the retained
// state incrementally — strictly fewer node estimations than a full
// recompute, same wire contract.
func TestServeVersionPinnedRelease(t *testing.T) {
	ts := newTestServer(t, engine.Options{})
	hr := uploadGroups(t, ts, "US", smallGroups())

	req := client.ReleaseRequest{Hierarchy: hr.ID, Algorithm: "topdown", Epsilon: 1, K: 50, Seed: 42}
	var first client.Release
	if status, body := postJSON(t, ts.URL+"/v1/release", req, &first); status != http.StatusOK {
		t.Fatalf("head release: status %d: %s", status, body)
	}
	if first.Version != 1 || first.Fingerprint != hr.Fingerprint || first.Incremental {
		t.Fatalf("first release = %+v, want version 1 from scratch", first)
	}

	if status, body := postEvents(t, ts, hr.ID, appendEventsRequest{Events: []client.Event{
		{Type: "delta", Add: []client.EventGroup{{Path: []string{"CA"}, Size: 3}}},
	}}, ""); status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, body)
	}

	// Pinning version 1 after the delta answers from the same immutable
	// artifact: identical key, cache hit, no recompute.
	pinned := req
	pinned.Version = 1
	var repin client.Release
	if status, body := postJSON(t, ts.URL+"/v1/release", pinned, &repin); status != http.StatusOK {
		t.Fatalf("pinned release: status %d: %s", status, body)
	}
	if repin.Release != first.Release || repin.Fingerprint != first.Fingerprint || !repin.CacheHit {
		t.Fatalf("pinned release = %+v, want cache hit on %q", repin, first.Release)
	}

	// The new head releases incrementally off version 1's retained
	// state: only the changed subtree (CA and the root) is re-estimated.
	var head client.Release
	if status, body := postJSON(t, ts.URL+"/v1/release", req, &head); status != http.StatusOK {
		t.Fatalf("head release after delta: status %d: %s", status, body)
	}
	if head.Version != 2 || head.Release == first.Release {
		t.Fatalf("head release = %+v, want version 2 under a new key", head)
	}
	if !head.Incremental {
		t.Fatalf("head release after a single-branch delta was not incremental: %+v", head)
	}
	if head.NodesEstimated >= head.NodesTotal || head.NodesEstimated == 0 {
		t.Fatalf("incremental recompute estimated %d of %d nodes, want strictly fewer",
			head.NodesEstimated, head.NodesTotal)
	}

	// A release of a version the log does not have is a 404.
	bad := req
	bad.Version = 9
	if status, body := postJSON(t, ts.URL+"/v1/release", bad, nil); status != http.StatusNotFound {
		t.Fatalf("absent version release: status %d: %s", status, body)
	}
	bad.Version = -1
	if status, body := postJSON(t, ts.URL+"/v1/release", bad, nil); status != http.StatusBadRequest {
		t.Fatalf("negative version release: status %d: %s", status, body)
	}
}

// TestServeVersionPinnedQuery: ?hierarchy=&version= resolves a query to
// the durable artifact of that immutable version, so pinned answers
// stay byte-stable while the hierarchy keeps moving; the release
// listing filters by the same coordinates.
func TestServeVersionPinnedQuery(t *testing.T) {
	st := openStore(t, t.TempDir())
	ts := newTestServer(t, engine.Options{Store: st})
	hr := uploadGroups(t, ts, "US", smallGroups())

	req := client.ReleaseRequest{Hierarchy: hr.ID, Algorithm: "topdown", Epsilon: 1, K: 50, Seed: 7}
	var first client.Release
	if status, body := postJSON(t, ts.URL+"/v1/release", req, &first); status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, body)
	}

	pin := ts.URL + "/v1/query/US/CA?hierarchy=" + hr.ID + "&version=1&q=0.5"
	var before client.NodeReport
	if status, body := getJSON(t, pin, &before); status != http.StatusOK {
		t.Fatalf("pinned query: status %d: %s", status, body)
	}

	// Move the hierarchy ahead; the pinned answer must not move.
	if status, body := postEvents(t, ts, hr.ID, appendEventsRequest{Events: []client.Event{
		{Type: "delta", Add: []client.EventGroup{{Path: []string{"CA"}, Size: 5}}},
	}}, ""); status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, body)
	}
	var after client.NodeReport
	if status, body := getJSON(t, pin, &after); status != http.StatusOK {
		t.Fatalf("pinned query after delta: status %d: %s", status, body)
	}
	if beforeRaw, afterRaw := mustJSON(t, before), mustJSON(t, after); beforeRaw != afterRaw {
		t.Fatalf("pinned query drifted after delta:\nbefore %s\nafter  %s", beforeRaw, afterRaw)
	}

	// The head (version absent) is version 2 now, which has no durable
	// release yet.
	if status, body := getJSON(t, ts.URL+"/v1/query/US/CA?hierarchy="+hr.ID+"&q=0.5", nil); status != http.StatusNotFound {
		t.Fatalf("unreleased-head query: status %d: %s", status, body)
	}
	if status, body := getJSON(t, ts.URL+"/v1/query/US/CA?hierarchy="+hr.ID+"&version=nope&q=0.5", nil); status != http.StatusBadRequest {
		t.Fatalf("bad version query: status %d: %s", status, body)
	}
	if status, body := getJSON(t, ts.URL+"/v1/query/US/CA?hierarchy=h-missing&q=0.5", nil); status != http.StatusNotFound {
		t.Fatalf("unknown hierarchy query: status %d: %s", status, body)
	}

	// Release listing: version 1 has the artifact, version 2 nothing.
	var entries []client.ReleaseArtifact
	if status, body := getJSON(t, ts.URL+"/v1/release?hierarchy="+hr.ID+"&version=1", &entries); status != http.StatusOK {
		t.Fatalf("filtered listing: status %d: %s", status, body)
	}
	if len(entries) != 1 || entries[0].Release != first.Release {
		t.Fatalf("version-1 listing = %+v, want exactly %q", entries, first.Release)
	}
	entries = nil
	if status, body := getJSON(t, ts.URL+"/v1/release?hierarchy="+hr.ID+"&version=2", &entries); status != http.StatusOK {
		t.Fatalf("empty filtered listing: status %d: %s", status, body)
	}
	if len(entries) != 0 {
		t.Fatalf("version-2 listing = %+v, want empty", entries)
	}
	if status, _ := getJSON(t, ts.URL+"/v1/release?version=1", nil); status != http.StatusBadRequest {
		t.Fatalf("version filter without hierarchy: status %d", status)
	}
}

// TestServeContinualBudget: with -max-epsilon-continual set, releases
// across versions draw one shared account — fresh noise charges it,
// cache hits do not, and exhaustion is a 429 with the continual_budget
// code. The budget endpoint reports the account.
func TestServeContinualBudget(t *testing.T) {
	eng := engine.New(engine.Options{MaxEpsilonContinual: 2.5})
	srv, err := NewServer(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	hr := uploadGroups(t, ts, "US", smallGroups())

	req := client.ReleaseRequest{Hierarchy: hr.ID, Algorithm: "topdown", Epsilon: 1, K: 50, Seed: 1}
	if status, body := postJSON(t, ts.URL+"/v1/release", req, nil); status != http.StatusOK {
		t.Fatalf("first release: status %d: %s", status, body)
	}
	// The identical release is a cache hit: no noise is drawn and
	// nothing is charged — spend stays at 1.
	if status, body := postJSON(t, ts.URL+"/v1/release", req, nil); status != http.StatusOK {
		t.Fatalf("cache-hit release: status %d: %s", status, body)
	}

	// A new version draws fresh noise against the same shared account.
	if status, body := postEvents(t, ts, hr.ID, appendEventsRequest{Events: []client.Event{
		{Type: "delta", Add: []client.EventGroup{{Path: []string{"OR"}, Size: 2}}},
	}}, ""); status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/release", req, nil); status != http.StatusOK {
		t.Fatalf("head release after delta: status %d: %s", status, body)
	}

	// Spend is now 2 of 2.5: another 1.0 draw is a 429 continual_budget.
	over := req
	over.Seed = 2
	status, body := postJSON(t, ts.URL+"/v1/release", over, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-continual-budget release: status %d: %s", status, body)
	}
	var br budgetResponse
	if err := json.Unmarshal([]byte(body), &br); err != nil {
		t.Fatalf("parsing 429 body %q: %v", body, err)
	}
	if br.Code != "continual_budget" || br.Hierarchy != hr.ID || br.MaxEpsilonPerHierarchy != 2.5 {
		t.Fatalf("429 body = %+v", br)
	}
	if br.RemainingEpsilon < 0.49 || br.RemainingEpsilon > 0.51 {
		t.Fatalf("continual remaining = %g, want 0.5", br.RemainingEpsilon)
	}

	// A cheaper release fits in the remainder.
	small := req
	small.Epsilon = 0.5
	small.Seed = 3
	if status, body := postJSON(t, ts.URL+"/v1/release", small, nil); status != http.StatusOK {
		t.Fatalf("within-continual-budget release: status %d: %s", status, body)
	}

	// The budget endpoint accounts per version and for the shared pool.
	var bs client.Budget
	if status, body := getJSON(t, ts.URL+"/v1/budget/"+hr.ID, &bs); status != http.StatusOK {
		t.Fatalf("budget status: status %d: %s", status, body)
	}
	if !bs.ContinualEnforced || bs.MaxEpsilonContinual != 2.5 {
		t.Fatalf("continual account = %+v, want enforced at 2.5", bs)
	}
	if bs.ContinualSpentEpsilon != 2.5 || bs.ContinualRemainingEpsilon != 0 {
		t.Fatalf("continual spend = %g remaining %g, want 2.5 and 0",
			bs.ContinualSpentEpsilon, bs.ContinualRemainingEpsilon)
	}
	if len(bs.Versions) != 2 || bs.Versions[0].SpentEpsilon != 1 || bs.Versions[1].SpentEpsilon != 1.5 {
		t.Fatalf("per-version spend = %+v", bs.Versions)
	}
}

// TestServeLegacyHierarchyDeprecated: the legacy snapshot upload still
// works but is marked deprecated and points at the events endpoint;
// re-uploading the same snapshot does not reset a log that has moved
// on.
func TestServeLegacyHierarchyDeprecated(t *testing.T) {
	ts := newTestServer(t, engine.Options{})

	recs := make([]client.EventGroup, 0, len(smallGroups()))
	for _, g := range smallGroups() {
		recs = append(recs, client.EventGroup{Path: g.Path, Size: g.Size})
	}
	raw, err := json.Marshal(hierarchyRequest{Root: "US", Groups: recs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/hierarchy", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy upload: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Deprecation") != "true" {
		t.Fatalf("legacy upload Deprecation header = %q, want \"true\"", resp.Header.Get("Deprecation"))
	}
	var hr client.Hierarchy
	if err := json.Unmarshal(data, &hr); err != nil {
		t.Fatal(err)
	}
	wantLink := "</v1/hierarchy/" + hr.ID + "/events>; rel=\"successor-version\""
	if got := resp.Header.Get("Link"); got != wantLink {
		t.Fatalf("legacy upload Link header = %q, want %q", got, wantLink)
	}

	// Advance the log, then re-upload the identical snapshot: same id,
	// and the deltas survive — the response reports the current head.
	if status, body := postEvents(t, ts, hr.ID, appendEventsRequest{Events: []client.Event{
		{Type: "delta", Add: []client.EventGroup{{Path: []string{"OR"}, Size: 1}}},
	}}, ""); status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, body)
	}
	re := uploadGroups(t, ts, "US", smallGroups())
	if re.ID != hr.ID || re.Version != 2 {
		t.Fatalf("re-upload = id %q version %d, want %q at head 2", re.ID, re.Version, hr.ID)
	}
}

// TestServeErrorEnvelopeCodes: every 4xx body carries the
// machine-readable code clients dispatch on.
func TestServeErrorEnvelopeCodes(t *testing.T) {
	ts := newTestServer(t, engine.Options{})

	type errBody struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	check := func(name, body, wantCode string) {
		t.Helper()
		var eb errBody
		if err := json.Unmarshal([]byte(body), &eb); err != nil {
			t.Fatalf("%s: parsing error body %q: %v", name, body, err)
		}
		if eb.Code != wantCode || eb.Error == "" {
			t.Errorf("%s: envelope = %+v, want code %q and a message", name, eb, wantCode)
		}
	}

	_, body := getJSON(t, ts.URL+"/v1/hierarchy/h-missing/versions", nil)
	check("unknown versions", body, "not_found")
	_, body = postJSON(t, ts.URL+"/v1/release", client.ReleaseRequest{Hierarchy: "h-missing", Epsilon: 1}, nil)
	check("unknown release", body, "not_found")
	hr := uploadGroups(t, ts, "US", smallGroups())
	_, body = postJSON(t, ts.URL+"/v1/release", client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: -1}, nil)
	check("bad epsilon", body, "bad_request")
}
