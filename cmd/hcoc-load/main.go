// Command hcoc-load replays configurable workloads against a live
// hcoc-serve daemon and reports latency percentiles and an error
// breakdown — the measuring stick for every serving-layer change.
//
// The workload is a weighted mix of the five serving operations:
//
//	release  POST /v1/release with a seed drawn from a small space, so
//	         a warmed daemon answers most of them from its cache tiers
//	query    GET /v1/query/{node} on a random node with random stats
//	batch    POST /v1/query/batch: -batch-size node queries, one trip
//	cross    POST /v1/query/batch with cross-release aggregates (emd,
//	         delta, series, compare) spanning two warm releases of the
//	         same hierarchy — the scan-sharing planner path
//	delta    POST /v1/hierarchy/{id}/events appending a small delta
//	         event — the incremental-ingestion write path; each append
//	         advances the hierarchy's head version
//
// Two loop shapes are supported. The default closed loop runs
// -concurrency workers issuing requests back to back — throughput
// floats with latency, as when every user waits for the previous
// answer. With -rate R the generator runs an open loop instead: it
// fires R requests per second from a timer regardless of how fast the
// daemon answers, the shape that exposes queueing collapse.
//
// Before generating load it uploads a synthetic hierarchy (-dataset,
// -scale) and computes one seeded release, so queries always have a
// release to read.
//
// With -tenants N the run drives N distinct hierarchies (each from its
// own dataset seed, so each is its own tenant under the daemon's QoS
// scheduler) and reports a per-tenant latency digest next to the
// per-op one. Adding -hostile turns the LAST tenant into an adversary:
// it floods releases with unique seeds — every one a fresh computation
// — while the other tenants run the normal mix. Hostile-tenant samples
// are excluded from the -max-error-rate gate (the adversary being
// throttled with 429s is the system working, not failing), so the exit
// status answers the question that matters: did the victims stay
// healthy while one tenant misbehaved?
//
// A whole cluster can be driven as easily as one daemon: -targets
// takes several comma-separated base URLs (hcoc-gateway instances, or
// backends directly) and the generator fails over between them
// client-side, sticking to the last target that answered. With
// -targets-file the list lives in a file instead; SIGHUP re-reads it
// mid-run and retargets the in-flight workload, so a long soak
// survives cluster topology changes without restarting.
//
// Example:
//
//	hcoc-serve -addr :8080 &
//	hcoc-load -addr http://localhost:8080 -duration 30s \
//	    -mix release=1,query=8,batch=1 -concurrency 16
//	hcoc-load -targets http://gw1:8080,http://gw2:8080 -duration 30s
//
// The exit status is 0 when the error-rate stays within
// -max-error-rate, 1 otherwise — CI-friendly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/httpx"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "hcoc-load: %v\n", err)
		os.Exit(2)
	}
	sum, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hcoc-load: %v\n", err)
		os.Exit(1)
	}
	if rate := sum.errorRate(); rate > cfg.maxErrorRate {
		fmt.Fprintf(os.Stderr, "hcoc-load: error rate %.4f exceeds the %.4f bound\n", rate, cfg.maxErrorRate)
		os.Exit(1)
	}
}

// config is everything a load run needs; flags parse into it and tests
// construct it directly.
type config struct {
	addr         string
	targets      []string // >=1 base URL selects the failover ClusterClient
	targetsFile  string   // optional file of target URLs, re-read on SIGHUP
	duration     time.Duration
	concurrency  int
	rate         float64 // >0 selects the open loop
	mix          map[string]int
	batchSize    int
	epsilon      float64
	k            int
	seed         int64
	seedSpace    int64
	dataset      string
	scale        float64
	maxErrorRate float64
	timeout      time.Duration
	tenants      int  // distinct hierarchies driven as separate tenants
	hostile      bool // last tenant floods unique-seed releases
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("hcoc-load", flag.ContinueOnError)
	cfg := config{}
	var mix, targets string
	fs.StringVar(&cfg.addr, "addr", "http://localhost:8080", "base URL of the hcoc-serve daemon")
	fs.StringVar(&targets, "targets", "", "comma-separated base URLs of a cluster (gateways or backends); overrides -addr and enables client-side failover")
	fs.StringVar(&cfg.targetsFile, "targets-file", "", "file of cluster base URLs (one per line, # comments); merged with -targets and re-read on SIGHUP")
	fs.DurationVar(&cfg.duration, "duration", 30*time.Second, "how long to generate load")
	fs.IntVar(&cfg.concurrency, "concurrency", 8, "closed-loop workers; the open loop bounds in-flight requests at 64x this")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop request rate per second (0 = closed loop)")
	fs.StringVar(&mix, "mix", "release=1,query=8,batch=1", "weighted operation mix (release/query/batch/cross/delta)")
	fs.IntVar(&cfg.batchSize, "batch-size", 16, "node queries per batch operation")
	fs.Float64Var(&cfg.epsilon, "epsilon", 1, "epsilon per release request")
	fs.IntVar(&cfg.k, "k", 1000, "public group-size bound for releases")
	fs.Int64Var(&cfg.seed, "seed", 1, "base seed for the workload generator")
	fs.Int64Var(&cfg.seedSpace, "seed-space", 8, "distinct release seeds in the mix; smaller = more cache hits")
	fs.StringVar(&cfg.dataset, "dataset", "housing", "synthetic dataset to upload (housing|taxi|race-white|race-hawaiian)")
	fs.Float64Var(&cfg.scale, "scale", 0.02, "synthetic dataset scale factor")
	fs.Float64Var(&cfg.maxErrorRate, "max-error-rate", 0.01, "failed-request fraction above which the exit status is 1 (hostile-tenant samples excluded)")
	fs.DurationVar(&cfg.timeout, "timeout", time.Minute, "per-request timeout")
	fs.IntVar(&cfg.tenants, "tenants", 1, "distinct hierarchies to drive as separate tenants")
	fs.BoolVar(&cfg.hostile, "hostile", false, "turn the last tenant into an adversary flooding unique-seed releases (requires -tenants >= 2)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	var err error
	if cfg.mix, err = parseMix(mix); err != nil {
		return config{}, err
	}
	for _, part := range strings.Split(targets, ",") {
		if u := strings.TrimSpace(part); u != "" {
			cfg.targets = append(cfg.targets, u)
		}
	}
	if cfg.concurrency < 1 || cfg.batchSize < 1 || cfg.duration <= 0 {
		return config{}, fmt.Errorf("concurrency, batch-size and duration must be positive")
	}
	if cfg.tenants < 1 {
		return config{}, fmt.Errorf("-tenants must be at least 1")
	}
	if cfg.hostile && cfg.tenants < 2 {
		return config{}, fmt.Errorf("-hostile needs -tenants >= 2 (an adversary with no victims measures nothing)")
	}
	return cfg, nil
}

// parseMix reads "release=1,query=8,batch=1,cross=1,delta=1" into
// weights; omitted ops get weight 0, and at least one weight must be
// positive.
func parseMix(s string) (map[string]int, error) {
	out := map[string]int{"release": 0, "query": 0, "batch": 0, "cross": 0, "delta": 0}
	total := 0
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		if _, known := out[name]; !known {
			return nil, fmt.Errorf("unknown op %q in mix (want release|query|batch|cross|delta)", name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad weight %q for %s", val, name)
		}
		out[name] = w
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("mix has no positive weights")
	}
	return out, nil
}

// target names what the run is aimed at, for messages.
func (c config) target() string {
	if len(c.targets) > 0 {
		return strings.Join(c.targets, ",")
	}
	return c.addr
}

func datasetKind(name string) (hcoc.DatasetKind, error) {
	switch name {
	case "housing":
		return hcoc.DatasetHousing, nil
	case "taxi":
		return hcoc.DatasetTaxi, nil
	case "race-white":
		return hcoc.DatasetRaceWhite, nil
	case "race-hawaiian":
		return hcoc.DatasetRaceHawaiian, nil
	default:
		return 0, fmt.Errorf("unknown dataset %q", name)
	}
}

// sample is one completed operation.
type sample struct {
	op      string
	tenant  string // per-tenant digest label; empty in single-tenant runs
	hostile bool   // excluded from the -max-error-rate gate
	latency time.Duration
	err     error
}

// recorder accumulates samples; safe for concurrent use.
type recorder struct {
	mu      sync.Mutex
	samples []sample
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// errDropped marks an open-loop operation shed at the in-flight bound
// instead of being issued. Drops are attempted ops that the system
// failed to absorb, so they count in BOTH the numerator and the
// denominator of the error rate — excluding them from the denominator
// would overstate the failure fraction of the work actually offered,
// and excluding them from the numerator would hide queueing collapse
// entirely. TestDigestDropAccounting pins this math.
var errDropped = errors.New("dropped: in-flight bound reached")

// summary is the digested outcome of a run.
type summary struct {
	// total counts every attempted operation: issued requests
	// (succeeded or failed) AND open-loop drops.
	total, failed int
	// dropped is how many of failed were never issued (open-loop
	// in-flight bound); always <= failed.
	dropped int
	elapsed time.Duration
	// byOp maps op name to its latencies (successes only) and error count.
	byOp map[string]*opStats
	// byTenant digests multi-tenant runs per tenant label, all ops
	// combined; empty in single-tenant runs.
	byTenant map[string]*opStats
	// hostileTotal/hostileFailed count the adversary's samples, which
	// stay out of the error-rate gate: the adversary being throttled is
	// the system working.
	hostileTotal, hostileFailed int
	// errors maps an error class ("429", "503", "net", "dropped", ...)
	// to a count.
	errors map[string]int
}

type opStats struct {
	latencies []time.Duration
	errors    int
}

// errorRate is failed/total with drops included on both sides and
// hostile-tenant samples excluded from both: the gate judges the
// victims' experience, not whether the adversary got throttled.
func (s *summary) errorRate() float64 {
	total := s.total - s.hostileTotal
	if total == 0 {
		return 1 // a run that did nothing is a failed run
	}
	return float64(s.failed-s.hostileFailed) / float64(total)
}

// digest turns raw samples into the summary.
func digest(samples []sample, elapsed time.Duration) *summary {
	sum := &summary{elapsed: elapsed, byOp: map[string]*opStats{}, byTenant: map[string]*opStats{}, errors: map[string]int{}}
	for _, s := range samples {
		st := sum.byOp[s.op]
		if st == nil {
			st = &opStats{}
			sum.byOp[s.op] = st
		}
		var tt *opStats
		if s.tenant != "" {
			if tt = sum.byTenant[s.tenant]; tt == nil {
				tt = &opStats{}
				sum.byTenant[s.tenant] = tt
			}
		}
		sum.total++
		if s.hostile {
			sum.hostileTotal++
		}
		if s.err != nil {
			sum.failed++
			st.errors++
			if tt != nil {
				tt.errors++
			}
			if s.hostile {
				sum.hostileFailed++
			}
			sum.errors[classify(s.err)]++
			if errors.Is(s.err, errDropped) {
				sum.dropped++
			}
			continue
		}
		st.latencies = append(st.latencies, s.latency)
		if tt != nil {
			tt.latencies = append(tt.latencies, s.latency)
		}
	}
	return sum
}

// classify buckets an error for the breakdown: open-loop drops and
// budget refusals by name, HTTP statuses by code, transport failures
// as "net".
func classify(err error) string {
	if errors.Is(err, errDropped) {
		return "dropped"
	}
	var be *client.BudgetError
	if errors.As(err, &be) {
		return "budget"
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return strconv.Itoa(ae.StatusCode)
	}
	return "net"
}

// percentile returns the p-th percentile of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// report prints the human summary table.
func (s *summary) report(w io.Writer, cfg config) {
	shape := fmt.Sprintf("closed loop, %d workers", cfg.concurrency)
	if cfg.rate > 0 {
		shape = fmt.Sprintf("open loop, %.0f req/s target", cfg.rate)
	}
	fmt.Fprintf(w, "hcoc-load: %s for %s against %s\n", shape, cfg.duration, cfg.target())
	fmt.Fprintf(w, "%-8s %8s %7s %10s %10s %10s %10s\n", "op", "count", "errors", "p50", "p90", "p99", "max")
	ops := make([]string, 0, len(s.byOp))
	for op := range s.byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		st := s.byOp[op]
		sort.Slice(st.latencies, func(i, j int) bool { return st.latencies[i] < st.latencies[j] })
		fmt.Fprintf(w, "%-8s %8d %7d %10s %10s %10s %10s\n",
			op, len(st.latencies)+st.errors, st.errors,
			percentile(st.latencies, 0.50).Round(10*time.Microsecond),
			percentile(st.latencies, 0.90).Round(10*time.Microsecond),
			percentile(st.latencies, 0.99).Round(10*time.Microsecond),
			percentile(st.latencies, 1.00).Round(10*time.Microsecond))
	}
	if len(s.byTenant) > 1 {
		fmt.Fprintf(w, "per-tenant digest:\n")
		tenants := make([]string, 0, len(s.byTenant))
		for tn := range s.byTenant {
			tenants = append(tenants, tn)
		}
		sort.Strings(tenants)
		for _, tn := range tenants {
			st := s.byTenant[tn]
			sort.Slice(st.latencies, func(i, j int) bool { return st.latencies[i] < st.latencies[j] })
			fmt.Fprintf(w, "%-8s %8d %7d %10s %10s %10s %10s\n",
				tn, len(st.latencies)+st.errors, st.errors,
				percentile(st.latencies, 0.50).Round(10*time.Microsecond),
				percentile(st.latencies, 0.90).Round(10*time.Microsecond),
				percentile(st.latencies, 0.99).Round(10*time.Microsecond),
				percentile(st.latencies, 1.00).Round(10*time.Microsecond))
		}
	}
	fmt.Fprintf(w, "total    %8d %7d  (%.1f req/s over %s", s.total, s.failed,
		float64(s.total)/s.elapsed.Seconds(), s.elapsed.Round(time.Millisecond))
	if s.dropped > 0 {
		fmt.Fprintf(w, "; %d dropped at the in-flight bound", s.dropped)
	}
	fmt.Fprintln(w, ")")
	if len(s.errors) > 0 {
		classes := make([]string, 0, len(s.errors))
		for c := range s.errors {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Fprintf(w, "error breakdown:")
		for _, c := range classes {
			fmt.Fprintf(w, " %s x%d", c, s.errors[c])
		}
		fmt.Fprintln(w)
	}
}

// run sets up the target (hierarchy upload + one warm release) and
// drives the configured loop, returning the digested summary.
func run(ctx context.Context, cfg config, out io.Writer) (*summary, error) {
	if cfg.tenants < 1 {
		cfg.tenants = 1 // directly-constructed configs (tests) may omit it
	}
	targets := cfg.targets
	if cfg.targetsFile != "" {
		fromFile, err := readTargetsFile(cfg.targetsFile)
		if err != nil {
			return nil, err
		}
		targets = httpx.MergeURLs(cfg.targets, fromFile)
	}
	var c *client.Client
	var err error
	if len(targets) > 0 {
		var cc *client.ClusterClient
		if cc, err = client.NewCluster(targets); err == nil {
			c = cc.Client
			if cfg.targetsFile != "" {
				stop := retargetOnHUP(cc, cfg, out)
				defer stop()
			}
		}
	} else {
		c, err = client.New(cfg.addr)
	}
	if err != nil {
		return nil, err
	}
	if err := c.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("daemon not healthy at %s: %w", cfg.target(), err)
	}

	kind, err := datasetKind(cfg.dataset)
	if err != nil {
		return nil, err
	}

	// Each tenant is its own hierarchy from its own dataset seed — a
	// distinct fingerprint, so the daemon's QoS scheduler sees distinct
	// tenants. 7919 (a prime) spaces the seeds so per-worker seed
	// offsets never collide across tenants.
	tenants := make([]tenantTarget, cfg.tenants)
	for i := range tenants {
		seed := cfg.seed + int64(i)*7919
		groups, err := hcoc.SyntheticGroups(kind, hcoc.DatasetConfig{Seed: seed, Scale: cfg.scale})
		if err != nil {
			return nil, err
		}
		tree, err := hcoc.BuildHierarchy("root", groups)
		if err != nil {
			return nil, err
		}
		var nodes []string
		for _, n := range tree.Nodes() {
			nodes = append(nodes, n.Path)
		}

		h, err := c.UploadHierarchy(ctx, "root", groups)
		if err != nil {
			return nil, fmt.Errorf("uploading hierarchy %d: %w", i, err)
		}
		t := tenantTarget{
			label:     fmt.Sprintf("t%d", i),
			seed:      seed,
			hierarchy: h.ID,
			nodes:     nodes,
			hostile:   cfg.hostile && i == cfg.tenants-1,
		}
		role := ""
		if t.hostile {
			role = ", hostile"
		}
		fmt.Fprintf(out, "hcoc-load: uploaded %s as %s (%d nodes, %d groups%s)\n", h.ID, t.label, h.Nodes, h.Groups, role)

		// Warm release: queries need a release key from second zero.
		warm, err := c.Release(ctx, client.ReleaseRequest{
			Hierarchy: h.ID, Epsilon: cfg.epsilon, K: cfg.k, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("warm release for %s: %w", t.label, err)
		}
		t.release = warm.Release
		fmt.Fprintf(out, "hcoc-load: warm release %s (%d nodes, %.1fms)\n", warm.Release, warm.Nodes, warm.DurationMS)

		// Cross-release operations compare two releases; warm the second
		// one (a seed outside the release-op space, so it stays distinct)
		// only when the mix asks for them. The hostile tenant never runs
		// the mix, so it skips the second warm-up.
		if cfg.mix["cross"] > 0 && !t.hostile {
			warm2, err := c.Release(ctx, client.ReleaseRequest{
				Hierarchy: h.ID, Epsilon: cfg.epsilon, K: cfg.k, Seed: seed + cfg.seedSpace,
			})
			if err != nil {
				return nil, fmt.Errorf("second warm release for %s: %w", t.label, err)
			}
			t.release2 = warm2.Release
			fmt.Fprintf(out, "hcoc-load: warm release %s (cross-release pair)\n", warm2.Release)
		}
		tenants[i] = t
	}

	w := &worker{cfg: cfg, c: c, tenants: tenants}
	rec := &recorder{}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()
	if cfg.rate > 0 {
		w.openLoop(ctx, rec)
	} else {
		w.closedLoop(ctx, rec)
	}
	sum := digest(rec.samples, time.Since(start))
	sum.report(out, cfg)
	return sum, nil
}

// readTargetsFile parses a -targets-file: one URL per token,
// whitespace- or comma-separated, blank lines and #-comments ignored.
// Every target needs a scheme, as client.NewCluster requires.
func readTargetsFile(path string) ([]string, error) {
	out, err := httpx.ReadURLFile(path, "-targets-file", "target")
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("%s lists no targets", path)
	}
	return out, err
}

// retargetOnHUP re-reads the -targets-file on SIGHUP and swaps the
// cluster client's rotation mid-run (static -targets stay members).
// The returned stop function uninstalls the handler.
func retargetOnHUP(cc *client.ClusterClient, cfg config, out io.Writer) func() {
	return httpx.OnHUP(func() {
		fromFile, err := readTargetsFile(cfg.targetsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hcoc-load: reload: %v\n", err)
			return
		}
		next := httpx.MergeURLs(cfg.targets, fromFile)
		if err := cc.SetTargets(next); err != nil {
			fmt.Fprintf(os.Stderr, "hcoc-load: reload: %v\n", err)
			return
		}
		fmt.Fprintf(out, "hcoc-load: retargeted to %s\n", strings.Join(next, ","))
	})
}

// tenantTarget is one tenant's warm serving state: its hierarchy, the
// releases its queries read, and whether it plays the adversary.
type tenantTarget struct {
	label     string
	seed      int64
	hierarchy string
	release   string
	release2  string // second warm release for cross-release operations
	nodes     []string
	hostile   bool
}

// worker holds the shared state of the load loops.
type worker struct {
	cfg     config
	c       *client.Client
	tenants []tenantTarget
}

// closedLoop runs cfg.concurrency goroutines issuing operations back
// to back until the context ends. Workers are dealt round-robin across
// tenants, so every tenant keeps constant offered concurrency.
func (w *worker) closedLoop(ctx context.Context, rec *recorder) {
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.concurrency; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tt := &w.tenants[id%len(w.tenants)]
			rng := rand.New(rand.NewSource(w.cfg.seed + int64(id)))
			for ctx.Err() == nil {
				w.issue(ctx, w.pickFor(tt, rng), tt, rng, rec)
			}
		}(i)
	}
	wg.Wait()
}

// openLoop fires operations at cfg.rate per second regardless of
// response times, bounding in-flight requests at cfg.concurrency*64;
// operations that would exceed the bound are recorded as dropped — the
// honest open-loop signal that the daemon is not keeping up.
func (w *worker) openLoop(ctx context.Context, rec *recorder) {
	interval := time.Duration(float64(time.Second) / w.cfg.rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	slots := make(chan struct{}, w.cfg.concurrency*64)
	rng := rand.New(rand.NewSource(w.cfg.seed))
	var wg sync.WaitGroup
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-ticker.C:
		}
		tt := &w.tenants[rng.Intn(len(w.tenants))]
		select {
		case slots <- struct{}{}:
		default:
			rec.add(sample{op: w.pickFor(tt, rng), tenant: tt.label, hostile: tt.hostile,
				err: fmt.Errorf("%w (%d in flight)", errDropped, cap(slots))})
			continue
		}
		op, seed := w.pickFor(tt, rng), rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			w.issue(ctx, op, tt, rand.New(rand.NewSource(seed)), rec)
		}()
	}
}

// pickFor draws an operation from the weighted mix — except for the
// hostile tenant, which only ever floods releases.
func (w *worker) pickFor(tt *tenantTarget, rng *rand.Rand) string {
	if tt.hostile {
		return "hostile"
	}
	total := 0
	for _, weight := range w.cfg.mix {
		total += weight
	}
	n := rng.Intn(total)
	for _, op := range []string{"release", "query", "batch", "cross", "delta"} {
		if n -= w.cfg.mix[op]; n < 0 {
			return op
		}
	}
	return "query"
}

// issue runs one operation and records its outcome. Operations cut off
// by the run deadline are not recorded — they measure the deadline, not
// the daemon — but per-request -timeout expiries are failures and
// count.
func (w *worker) issue(parent context.Context, op string, tt *tenantTarget, rng *rand.Rand, rec *recorder) {
	ctx, cancel := context.WithTimeout(parent, w.cfg.timeout)
	defer cancel()
	start := time.Now()
	var err error
	switch op {
	case "release":
		_, err = w.c.Release(ctx, client.ReleaseRequest{
			Hierarchy: tt.hierarchy,
			Epsilon:   w.cfg.epsilon,
			K:         w.cfg.k,
			Seed:      tt.seed + rng.Int63n(w.cfg.seedSpace),
		})
	case "hostile":
		// Every seed unique: no cache tier can absorb it, so each
		// request demands a fresh computation — the flood the QoS
		// scheduler exists to contain.
		_, err = w.c.Release(ctx, client.ReleaseRequest{
			Hierarchy: tt.hierarchy,
			Epsilon:   w.cfg.epsilon,
			K:         w.cfg.k,
			Seed:      rng.Int63(),
		})
	case "delta":
		// Each append adds one fresh group under a synthetic branch —
		// a unique path, so every event is a real mutation and every
		// append a new immutable version of the tenant's hierarchy.
		_, err = w.c.AppendEvents(ctx, tt.hierarchy, []client.Event{
			client.DeltaEvent([]client.EventGroup{{
				Path: []string{"load", fmt.Sprintf("d%d", rng.Int63())},
				Size: 1 + rng.Int63n(64),
			}}, nil, nil),
		}, "")
	case "query":
		_, err = w.c.Query(ctx, tt.release, tt.node(rng), client.QueryParams{
			Quantiles: []float64{0.5, 0.9, 0.99},
			TopCode:   8,
		})
	case "batch":
		qs := make([]client.NodeQuery, w.cfg.batchSize)
		for i := range qs {
			qs[i] = client.NodeQuery{Node: tt.node(rng), Quantiles: []float64{0.5, 0.9}, TopCode: 8}
		}
		var results []client.NodeResult
		results, err = w.c.BatchQuery(ctx, tt.release, qs)
		for _, r := range results {
			if err == nil && r.Error != "" {
				err = fmt.Errorf("batch item %s: %s", r.Node, r.Error)
			}
		}
	case "cross":
		pair := []string{tt.release, tt.release2}
		ops := []string{"emd", "delta", "series", "compare"}
		qs := make([]client.NodeQuery, w.cfg.batchSize)
		for i := range qs {
			qs[i] = client.NodeQuery{Op: ops[rng.Intn(len(ops))], Releases: pair, Node: tt.node(rng)}
		}
		var results []client.NodeResult
		results, err = w.c.BatchQuery(ctx, "", qs)
		for _, r := range results {
			if err == nil && r.Error != "" {
				err = fmt.Errorf("cross item %s %s: %s", r.Op, r.Node, r.Error)
			}
		}
	}
	if parent.Err() != nil && err != nil {
		return // run shutdown, not a daemon failure
	}
	rec.add(sample{op: op, tenant: tt.label, hostile: tt.hostile, latency: time.Since(start), err: err})
}

func (tt *tenantTarget) node(rng *rand.Rand) string {
	return tt.nodes[rng.Intn(len(tt.nodes))]
}
