package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/store"
)

// continualSpent reads a hierarchy's continual_spent_epsilon from
// GET /v1/budget/{id}.
func continualSpent(t *testing.T, ts *httptest.Server, id string) float64 {
	t.Helper()
	var bs client.Budget
	if status, body := getJSON(t, ts.URL+"/v1/budget/"+id, &bs); status != http.StatusOK {
		t.Fatalf("budget: status %d: %s", status, body)
	}
	if !bs.ContinualEnforced {
		t.Fatalf("continual bound not enforced: %+v", bs)
	}
	return bs.ContinualSpentEpsilon
}

// TestServeContinualRevertCountsOnce: a delta that reverts a log to an
// earlier tree repeats that tree's fingerprint, and the continual spend
// counts the tree once, before a restart and after it.
func TestServeContinualRevertCountsOnce(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewServer(engine.New(engine.Options{Store: st1, MaxEpsilonContinual: 10}), st1)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	hr := uploadGroups(t, ts1, "US", smallGroups())

	req := client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 1}
	if status, body := postJSON(t, ts1.URL+"/v1/release", req, nil); status != http.StatusOK {
		t.Fatalf("version-1 release: status %d: %s", status, body)
	}
	extra := []client.EventGroup{{Path: []string{"CA"}, Size: 2}}
	for _, ev := range []client.Event{{Type: "delta", Add: extra}, {Type: "delta", Remove: extra}} {
		if status, body := postEvents(t, ts1, hr.ID, appendEventsRequest{Events: []client.Event{ev}}, ""); status != http.StatusOK {
			t.Fatalf("append: status %d: %s", status, body)
		}
	}
	vs := getVersions(t, ts1, hr.ID).Versions
	if len(vs) != 3 || vs[2].Fingerprint != vs[0].Fingerprint {
		t.Fatalf("versions = %+v, want version 3 to repeat version 1's fingerprint", vs)
	}
	req.Seed = 2
	if status, body := postJSON(t, ts1.URL+"/v1/release", req, nil); status != http.StatusOK {
		t.Fatalf("version-3 release: status %d: %s", status, body)
	}
	if got := continualSpent(t, ts1, hr.ID); got != 2 {
		t.Fatalf("continual spend before restart = %g, want 2", got)
	}
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	srv2, err := NewServer(engine.New(engine.Options{Store: st2, MaxEpsilonContinual: 10}), st2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)
	if got := continualSpent(t, ts2, hr.ID); got != 2 {
		t.Fatalf("continual spend after restart = %g, want 2", got)
	}
}

// TestServeContinualRepeatIsFree: with the continual budget spent, an
// identical repeat is still answered, from the cache, because it draws
// no noise.
func TestServeContinualRepeatIsFree(t *testing.T) {
	ts := newTestServer(t, engine.Options{MaxEpsilonContinual: 1})
	hr := uploadGroups(t, ts, "US", smallGroups())
	req := client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 1}
	if status, body := postJSON(t, ts.URL+"/v1/release", req, nil); status != http.StatusOK {
		t.Fatalf("first release: status %d: %s", status, body)
	}
	var rr client.Release
	if status, body := postJSON(t, ts.URL+"/v1/release", req, &rr); status != http.StatusOK || !rr.CacheHit {
		t.Fatalf("identical repeat: status %d cache_hit=%v: %s", status, rr.CacheHit, body)
	}
	if got := continualSpent(t, ts, hr.ID); got != 1 {
		t.Fatalf("continual spend = %g, want 1", got)
	}
}

// TestServeContinualConcurrent: concurrent computations of four
// versions race for their log's continual budget, and exactly as many
// as it affords are admitted.
func TestServeContinualConcurrent(t *testing.T) {
	ts := newTestServer(t, engine.Options{MaxEpsilonContinual: 5})
	hr := uploadGroups(t, ts, "US", smallGroups())
	for _, state := range []string{"OR", "NV", "ID"} {
		ev := client.Event{Type: "delta", Add: []client.EventGroup{{Path: []string{state}, Size: 2}}}
		if status, body := postEvents(t, ts, hr.ID, appendEventsRequest{Events: []client.Event{ev}}, ""); status != http.StatusOK {
			t.Fatalf("append: status %d: %s", status, body)
		}
	}

	const n = 16
	statuses := make([]int, n)
	bodies := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, _ := json.Marshal(client.ReleaseRequest{Hierarchy: hr.ID, Version: int64(i%4 + 1), Epsilon: 1, K: 50, Seed: int64(i + 1)})
			resp, err := http.Post(ts.URL+"/v1/release", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			statuses[i], bodies[i], errs[i] = resp.StatusCode, string(body), err
		}()
	}
	wg.Wait()
	ok, refused := 0, 0
	for i, status := range statuses {
		if errs[i] != nil {
			t.Fatalf("release %d: %v", i, errs[i])
		}
		switch status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			var br budgetResponse
			if err := json.Unmarshal([]byte(bodies[i]), &br); err != nil || br.Code != "continual_budget" {
				t.Fatalf("429 body %q, want code continual_budget", bodies[i])
			}
			refused++
		default:
			t.Fatalf("release %d: status %d: %s", i, status, bodies[i])
		}
	}
	if ok != 5 || refused != n-5 {
		t.Fatalf("%d admitted and %d refused, want 5 and %d", ok, refused, n-5)
	}
	if got := continualSpent(t, ts, hr.ID); got != 5 {
		t.Fatalf("continual spend = %g, want 5", got)
	}
}

// TestServeContinualAsyncOverBound: an async release over the continual
// bound is accepted, and its job fails with the budget message.
func TestServeContinualAsyncOverBound(t *testing.T) {
	ts := newTestServer(t, engine.Options{MaxEpsilonContinual: 1})
	hr := uploadGroups(t, ts, "US", smallGroups())
	if status, body := postJSON(t, ts.URL+"/v1/release", client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 1}, nil); status != http.StatusOK {
		t.Fatalf("first release: status %d: %s", status, body)
	}
	status, body := postJSON(t, ts.URL+"/v1/release", asyncRelease{client.ReleaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 2}, true}, nil)
	if status != http.StatusAccepted {
		t.Fatalf("async release over the bound: status %d: %s", status, body)
	}
	var job client.Job
	if err := json.Unmarshal([]byte(body), &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for job.Status != "done" && job.Status != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", job.Status)
		}
		time.Sleep(5 * time.Millisecond)
		if status, body := getJSON(t, ts.URL+"/v1/jobs/"+job.Job, &job); status != http.StatusOK {
			t.Fatalf("poll: status %d: %s", status, body)
		}
	}
	if job.Status != "failed" || !strings.Contains(job.Error, "continual-observation budget") {
		t.Fatalf("job = %+v, want failed with the continual budget message", job)
	}
	if got := continualSpent(t, ts, hr.ID); got != 1 {
		t.Fatalf("continual spend = %g, want 1", got)
	}
}
