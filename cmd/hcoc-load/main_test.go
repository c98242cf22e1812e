package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/httpx"
	"hcoc/internal/serve"

	"net/http/httptest"
)

func testConfig(addr string) config {
	mix, _ := parseMix("release=1,query=8,batch=1,cross=1")
	return config{
		addr:         addr,
		duration:     time.Second,
		concurrency:  4,
		mix:          mix,
		batchSize:    8,
		epsilon:      1,
		k:            200,
		seed:         1,
		seedSpace:    4,
		dataset:      "housing",
		scale:        0.005,
		maxErrorRate: 0,
		timeout:      30 * time.Second,
	}
}

func newDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := serve.NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestLoadClosedLoop runs a short mixed closed-loop workload against
// the real serving stack and requires a clean error-free summary
// covering every op in the mix.
func TestLoadClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("load integration skipped in -short mode")
	}
	ts := newDaemon(t)
	sum, err := run(context.Background(), testConfig(ts.URL), os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", sum.failed, sum.total, sum.errors)
	}
	if sum.total < 10 {
		t.Fatalf("only %d operations in 1s; the loop is not running", sum.total)
	}
	for _, op := range []string{"release", "query", "batch", "cross"} {
		if sum.byOp[op] == nil || len(sum.byOp[op].latencies) == 0 {
			t.Fatalf("op %s never ran: %+v", op, sum.byOp)
		}
	}
	if sum.errorRate() != 0 {
		t.Fatalf("error rate %g", sum.errorRate())
	}
}

// TestLoadOpenLoop drives the rate-paced loop and requires the pacing
// to hold: an open loop at 50 req/s for a second issues about 50
// operations, not thousands.
func TestLoadOpenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("load integration skipped in -short mode")
	}
	ts := newDaemon(t)
	cfg := testConfig(ts.URL)
	cfg.rate = 50
	sum, err := run(context.Background(), cfg, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", sum.failed, sum.total, sum.errors)
	}
	if sum.total < 20 || sum.total > 80 {
		t.Fatalf("open loop at 50/s for 1s issued %d operations", sum.total)
	}
}

// TestLoadClusterTargets drives the generator through the failover
// client against two daemons, one of which is already dead — every
// operation must transparently land on the live one.
func TestLoadClusterTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("load integration skipped in -short mode")
	}
	dead := newDaemon(t)
	dead.Close()
	live := newDaemon(t)
	cfg := testConfig("")
	cfg.targets = []string{dead.URL, live.URL}
	cfg.duration = 500 * time.Millisecond
	sum, err := run(context.Background(), cfg, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.failed != 0 || sum.total < 5 {
		t.Fatalf("cluster run: %d/%d failed (%v)", sum.failed, sum.total, sum.errors)
	}
}

// TestLoadUnreachableDaemon fails fast with a useful error.
func TestLoadUnreachableDaemon(t *testing.T) {
	cfg := testConfig("http://127.0.0.1:1")
	cfg.duration = 100 * time.Millisecond
	if _, err := run(context.Background(), cfg, os.Stderr); err == nil || !strings.Contains(err.Error(), "not healthy") {
		t.Fatalf("err = %v, want health failure", err)
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("query=3,batch=1")
	if err != nil || mix["query"] != 3 || mix["batch"] != 1 || mix["release"] != 0 {
		t.Fatalf("mix %+v, err %v", mix, err)
	}
	mix, err = parseMix("cross=2,query=1")
	if err != nil || mix["cross"] != 2 || mix["query"] != 1 {
		t.Fatalf("cross mix %+v, err %v", mix, err)
	}
	for _, bad := range []string{"", "query", "query=-1", "frob=1", "query=0,batch=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("parseMix(%q) accepted", bad)
		}
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "http://x:1", "-duration", "2s", "-rate", "10", "-mix", "query=1"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "http://x:1" || cfg.duration != 2*time.Second || cfg.rate != 10 || cfg.mix["query"] != 1 {
		t.Fatalf("cfg %+v", cfg)
	}
	if _, err := parseFlags([]string{"-mix", "bogus"}); err == nil {
		t.Fatal("bad mix accepted")
	}
	cfg, err = parseFlags([]string{"-targets", "http://a:1, http://b:2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.targets) != 2 || cfg.targets[0] != "http://a:1" || cfg.targets[1] != "http://b:2" {
		t.Fatalf("targets %v", cfg.targets)
	}
	if cfg.target() != "http://a:1,http://b:2" {
		t.Fatalf("target() = %q", cfg.target())
	}

	cfg, err = parseFlags([]string{"-tenants", "3", "-hostile"})
	if err != nil || cfg.tenants != 3 || !cfg.hostile {
		t.Fatalf("tenants cfg %+v, err %v", cfg, err)
	}
	if _, err := parseFlags([]string{"-tenants", "0"}); err == nil {
		t.Fatal("-tenants 0 accepted")
	}
	if _, err := parseFlags([]string{"-hostile"}); err == nil {
		t.Fatal("-hostile without victims accepted")
	}
}

func TestReadTargetsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "targets.txt")
	content := "# the cluster\nhttp://a:1, http://b:2/\n\nhttp://c:3\thttp://a:1 # repeat kept; MergeURLs dedups\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readTargetsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:1", "http://b:2", "http://c:3", "http://a:1"}
	if len(got) != len(want) {
		t.Fatalf("targets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("targets = %v, want %v", got, want)
		}
	}
	if err := os.WriteFile(path, []byte("# only comments\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTargetsFile(path); err == nil {
		t.Fatal("comment-only file accepted")
	}
	if _, err := readTargetsFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := os.WriteFile(path, []byte("http://a:1\nb:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTargetsFile(path); err == nil || !strings.Contains(err.Error(), `target "b:2" needs a scheme`) {
		t.Fatalf("schemeless target: %v", err)
	}
}

func TestMergeTargets(t *testing.T) {
	got := httpx.MergeURLs(
		[]string{"http://a:1", "http://b:2"},
		[]string{"http://b:2", "http://c:3", "http://a:1"},
	)
	want := []string{"http://a:1", "http://b:2", "http://c:3"}
	if len(got) != len(want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
	if out := httpx.MergeURLs(nil, nil); out != nil {
		t.Fatalf("merge of nothing = %v", out)
	}
}

// TestRetargetOnHUP swaps the target file under a live handler and
// proves a SIGHUP rotates the cluster client onto the new endpoints.
func TestRetargetOnHUP(t *testing.T) {
	cc, err := client.NewCluster([]string{"http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "targets.txt")
	if err := os.WriteFile(path, []byte("http://b:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{targets: []string{"http://a:1"}, targetsFile: path}
	stop := retargetOnHUP(cc, cfg, io.Discard)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		targets := cc.Targets()
		if len(targets) == 2 && targets[0] == "http://a:1" && targets[1] == "http://b:2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("targets never rotated: %v", targets)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDigestHostileExclusion pins the multi-tenant gate math: the
// adversary's samples appear in the totals and per-tenant digest but
// stay out of the error rate, which judges only the victims.
func TestDigestHostileExclusion(t *testing.T) {
	var samples []sample
	for i := 0; i < 8; i++ {
		samples = append(samples, sample{op: "query", tenant: "t0", latency: time.Millisecond})
	}
	samples = append(samples,
		sample{op: "query", tenant: "t0", err: errors.New("boom")},
		sample{op: "hostile", tenant: "t1", hostile: true, latency: time.Millisecond},
		sample{op: "hostile", tenant: "t1", hostile: true, err: errors.New("429 throttled")},
		sample{op: "hostile", tenant: "t1", hostile: true, err: errors.New("429 throttled")},
	)
	sum := digest(samples, time.Second)
	if sum.total != 12 || sum.failed != 3 {
		t.Fatalf("total/failed = %d/%d, want 12/3", sum.total, sum.failed)
	}
	if sum.hostileTotal != 3 || sum.hostileFailed != 2 {
		t.Fatalf("hostile total/failed = %d/%d, want 3/2", sum.hostileTotal, sum.hostileFailed)
	}
	// 1 victim failure over 9 victim samples: the adversary's two 429s
	// must not count.
	if got, want := sum.errorRate(), 1.0/9; got != want {
		t.Fatalf("errorRate = %g, want %g", got, want)
	}
	if len(sum.byTenant) != 2 || sum.byTenant["t0"].errors != 1 || sum.byTenant["t1"].errors != 2 {
		t.Fatalf("byTenant = %+v", sum.byTenant)
	}
	var buf strings.Builder
	sum.report(&buf, testConfig("http://x"))
	if !strings.Contains(buf.String(), "per-tenant digest") || !strings.Contains(buf.String(), "t1") {
		t.Fatalf("report lost the per-tenant digest:\n%s", buf.String())
	}
}

// TestLoadHostileTenant soaks a two-tenant workload where the second
// tenant floods unique-seed releases against a deliberately small
// compute pool: the victim's error rate must hold even while the
// adversary is being queued and throttled.
func TestLoadHostileTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("load integration skipped in -short mode")
	}
	srv, err := serve.NewServer(engine.New(engine.Options{ComputeSlots: 2, ComputeQueueDepth: 2}), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	cfg := testConfig(ts.URL)
	cfg.tenants = 2
	cfg.hostile = true
	sum, err := run(context.Background(), cfg, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.hostileTotal == 0 {
		t.Fatal("the adversary issued nothing")
	}
	if len(sum.byTenant) != 2 {
		t.Fatalf("byTenant = %+v, want both tenants", sum.byTenant)
	}
	if rate := sum.errorRate(); rate > cfg.maxErrorRate {
		t.Fatalf("victim error rate %.4f exceeds %.4f under a hostile tenant", rate, cfg.maxErrorRate)
	}
}

// TestDigestDropAccounting pins the error-rate math: open-loop drops
// are attempted operations, counted in the denominator as well as the
// numerator, and classified separately from real failures.
func TestDigestDropAccounting(t *testing.T) {
	var samples []sample
	for i := 0; i < 6; i++ {
		samples = append(samples, sample{op: "query", latency: time.Millisecond})
	}
	samples = append(samples,
		sample{op: "query", err: errors.New("connection refused")},
		sample{op: "release", err: errors.New("boom")},
		sample{op: "query", err: fmt.Errorf("%w (512 in flight)", errDropped)},
		sample{op: "batch", err: errDropped},
	)
	sum := digest(samples, time.Second)
	if sum.total != 10 {
		t.Fatalf("total = %d, want 10 (drops count as attempted ops)", sum.total)
	}
	if sum.failed != 4 {
		t.Fatalf("failed = %d, want 4 (drops count as failures)", sum.failed)
	}
	if sum.dropped != 2 {
		t.Fatalf("dropped = %d, want 2", sum.dropped)
	}
	if got := sum.errorRate(); got != 0.4 {
		t.Fatalf("errorRate = %g, want 4/10", got)
	}
	if sum.errors["dropped"] != 2 || sum.errors["net"] != 2 {
		t.Fatalf("error classes = %v", sum.errors)
	}
	// The report names the drops so an operator cannot mistake them
	// for daemon failures.
	var buf strings.Builder
	sum.report(&buf, testConfig("http://x"))
	if !strings.Contains(buf.String(), "2 dropped at the in-flight bound") {
		t.Fatalf("report does not surface drops:\n%s", buf.String())
	}
}

// TestPercentile pins the percentile index math.
func TestPercentile(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(lat, 0.5); p != 5 {
		t.Fatalf("p50 = %d", p)
	}
	if p := percentile(lat, 1.0); p != 10 {
		t.Fatalf("p100 = %d", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %d", p)
	}
}
