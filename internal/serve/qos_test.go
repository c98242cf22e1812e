package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/sched"
)

// newQoSServer builds a server over an engine the test keeps a handle
// on, so compute slots can be saturated deterministically through the
// scheduler instead of with slow releases and sleeps.
func newQoSServer(t *testing.T, opts engine.Options) (*engine.Engine, *httptest.Server) {
	t.Helper()
	eng := engine.New(opts)
	srv, err := NewServer(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return eng, ts
}

// saturateCompute occupies every compute slot as a foreign tenant and
// returns the grants. While they are held, no release computation can
// start — only the read lane moves.
func saturateCompute(t *testing.T, eng *engine.Engine) []*sched.Grant {
	t.Helper()
	s := eng.Scheduler()
	grants := make([]*sched.Grant, s.Slots())
	for i := range grants {
		g, err := s.Acquire(context.Background(), "hostile")
		if err != nil {
			t.Fatal(err)
		}
		grants[i] = g
	}
	return grants
}

// waitTenantQueued spins until the scheduler shows n queued waiters
// across tenants.
func waitTenantQueued(t *testing.T, eng *engine.Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if eng.Scheduler().Snapshot().Queued >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("scheduler never reached %d queued", n)
}

// postRelease fires one release request without touching testing.T, so
// it is safe inside goroutines; it reports -1 on transport errors.
func postRelease(url string, req client.ReleaseRequest) int {
	raw, err := json.Marshal(req)
	if err != nil {
		return -1
	}
	resp, err := http.Post(url+"/v1/release", "application/json", bytes.NewReader(raw))
	if err != nil {
		return -1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestReadLaneStarvationRegression is the HTTP-layer starvation pin:
// with every compute slot held and a release queued behind them,
// concurrent batch queries must keep answering with bounded p99 — the
// read lane never waits behind compute. Saturation goes through the
// scheduler rather than slow releases, so the test is deterministic and
// holds the slots exactly as long as it needs.
func TestReadLaneStarvationRegression(t *testing.T) {
	eng, ts := newQoSServer(t, engine.Options{ComputeSlots: 2, ComputeQueueDepth: 8})
	hrID, release := releaseSmall(t, ts)

	grants := saturateCompute(t, eng)
	defer func() {
		for _, g := range grants {
			g.Release()
		}
	}()

	// Queue a distinct release behind the saturated pool; it must still
	// be pending after every query below has been answered.
	relStatus := make(chan int, 1)
	go func() {
		relStatus <- postRelease(ts.URL, client.ReleaseRequest{Hierarchy: hrID, Epsilon: 1, K: 50, Seed: 99})
	}()
	waitTenantQueued(t, eng, 1)

	const queries = 200
	lat := make([]time.Duration, 0, queries)
	for i := 0; i < queries; i++ {
		start := time.Now()
		status, body := postJSON(t, ts.URL+"/v1/query/batch", batchQueryRequest{
			Release: release,
			Queries: []client.NodeQuery{{Node: "US", Quantiles: []float64{0.5}}},
		}, nil)
		lat = append(lat, time.Since(start))
		if status != http.StatusOK {
			t.Fatalf("query %d under saturated compute: status %d: %s", i, status, body)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	if p99 > 500*time.Millisecond {
		t.Fatalf("batch query p99 = %v with compute saturated, want < 500ms (read lane queued behind compute?)", p99)
	}

	// The queued release must NOT have completed: the queries above
	// succeeded despite — not because of — compute availability.
	select {
	case status := <-relStatus:
		t.Fatalf("queued release returned %d while every slot was held", status)
	default:
	}

	// Free the pool: the queued release now completes.
	for _, g := range grants {
		g.Release()
	}
	grants = nil
	select {
	case status := <-relStatus:
		if status != http.StatusOK {
			t.Fatalf("queued release failed with %d after slots freed", status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued release never completed after slots freed")
	}

	// The read lane counted every query.
	if snap := eng.Scheduler().Snapshot(); snap.Reads < queries {
		t.Fatalf("read lane counted %d reads, want >= %d", snap.Reads, queries)
	}
}

// TestReleaseOverload429 pins the wire shape of admission refusal: a
// tenant at its queue bound gets 429 with a Retry-After header and the
// overload JSON body (not the budget shape — the budget 429 is
// terminal, this one is retryable).
func TestReleaseOverload429(t *testing.T) {
	eng, ts := newQoSServer(t, engine.Options{ComputeSlots: 1, ComputeQueueDepth: 1})
	hr := uploadGroups(t, ts, "US", smallGroups())

	grants := saturateCompute(t, eng)
	defer func() {
		for _, g := range grants {
			g.Release()
		}
	}()

	// First distinct release occupies the depth-1 queue.
	pending := make(chan int, 1)
	go func() {
		pending <- postRelease(ts.URL, client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 1})
	}()
	waitTenantQueued(t, eng, 1)

	// Second distinct release overflows it.
	raw, err := json.Marshal(client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/release", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}
	var body overloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Hierarchy != hr.ID || body.QueueDepth != 1 || body.RetryAfterSeconds != secs {
		t.Fatalf("overload body = %+v, want hierarchy %s, depth 1, retry %d", body, hr.ID, secs)
	}

	for _, g := range grants {
		g.Release()
	}
	grants = nil
	if status := <-pending; status != http.StatusOK {
		t.Fatalf("queued release failed with %d", status)
	}
}

// TestTenantsEndpoint pins GET /v1/tenants: after traffic from one
// hierarchy, the endpoint reports the scheduler pool, the read lane,
// and the tenant's ledger with the "h-" wire prefix.
func TestTenantsEndpoint(t *testing.T) {
	_, ts := newQoSServer(t, engine.Options{ComputeSlots: 2})
	hrID, release := releaseSmall(t, ts)

	// One cache hit and one read to populate the ledger.
	if status, body := postJSON(t, ts.URL+"/v1/release",
		client.ReleaseRequest{Hierarchy: hrID, Epsilon: 1, K: 50, Seed: 7}, nil); status != http.StatusOK {
		t.Fatalf("cache-hit release: %d: %s", status, body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/query/batch", batchQueryRequest{
		Release: release,
		Queries: []client.NodeQuery{{Node: "US"}},
	}, nil); status != http.StatusOK {
		t.Fatalf("batch query: %d: %s", status, body)
	}

	var resp client.TenantsStatus
	if status, body := getJSON(t, ts.URL+"/v1/tenants", &resp); status != http.StatusOK {
		t.Fatalf("tenants: %d: %s", status, body)
	}
	if resp.ComputeSlots != 2 || resp.QueueDepth != sched.DefaultQueueDepth {
		t.Fatalf("pool = %+v, want 2 slots, default queue depth", resp)
	}
	if resp.Reads == 0 {
		t.Fatal("read lane counted nothing")
	}
	if len(resp.Tenants) != 1 {
		t.Fatalf("tenants = %+v, want exactly one", resp.Tenants)
	}
	ten := resp.Tenants[0]
	if ten.Tenant != hrID {
		t.Fatalf("tenant id = %q, want %q", ten.Tenant, hrID)
	}
	if ten.Requests != 2 || ten.CacheHits != 1 || ten.Computed != 1 || ten.Granted != 1 {
		t.Fatalf("tenant ledger = %+v, want 2 requests, 1 cache hit, 1 computed, 1 granted", ten)
	}
	if ten.Weight != 1 {
		t.Fatalf("tenant weight = %g, want default 1", ten.Weight)
	}
	if ten.EpsilonSpent != 1 {
		t.Fatalf("tenant epsilon spent = %g, want 1", ten.EpsilonSpent)
	}
}

// TestMetricsTenantSeries pins the per-tenant and scheduler series in
// /metrics: the labeled tenant series carry the "h-" prefixed id, and
// the pool/read-lane gauges are present.
func TestMetricsTenantSeries(t *testing.T) {
	_, ts := newQoSServer(t, engine.Options{ComputeSlots: 2})
	hrID, _ := releaseSmall(t, ts)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, want := range []string{
		"hcoc_compute_slots 2",
		"hcoc_compute_slots_in_use 0",
		"hcoc_compute_rejected_total 0",
		"hcoc_read_lane_active 0",
		"hcoc_read_lane_reads_total",
		`hcoc_tenant_requests_total{tenant="` + hrID + `"} 1`,
		`hcoc_tenant_computed_total{tenant="` + hrID + `"} 1`,
		`hcoc_tenant_rejected_total{tenant="` + hrID + `"} 0`,
		`hcoc_tenant_weight{tenant="` + hrID + `"} 1`,
		`hcoc_tenant_queue_wait_seconds_total{tenant="` + hrID + `"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output lost %q", want)
		}
	}
}
