// Command hcoc-serve is a long-running HTTP service over the hcoc
// library, separating the expensive differentially private release
// computation from cheap repeated query serving. Identical release
// requests are answered from an LRU cache or coalesced onto one
// in-flight computation; with a durable store configured, completed
// releases and uploaded hierarchies are also persisted, so a restart
// serves past artifacts instead of recomputing (and conceptually
// re-spending privacy budget). The post-processing queries are reads
// against completed releases.
//
// The durable store is pluggable (-store-backend):
//
//   - disk (default): -data-dir names a local directory.
//   - s3: any S3-compatible object store (-s3-endpoint, -s3-bucket,
//     -s3-prefix; credentials from AWS_ACCESS_KEY_ID /
//     AWS_SECRET_ACCESS_KEY, unsigned when unset). Several nodes may
//     point at the same bucket+prefix: the store is shared, every node
//     reads the artifacts its peers wrote, and a wiped node warm-starts
//     from the shared manifest. This is the only multi-node deployment;
//     the disk backend serves single nodes.
//
// A node reads the budget spend recorded in the shared manifest only at
// start-up; it does not see charges other nodes make while it runs, and
// SIGHUP does not change that. The per-hierarchy bound is therefore per
// node: a fleet whose backends are reachable solely through
// cmd/hcoc-gateway spends at most R × -max-epsilon-per-hierarchy per
// hierarchy, R being the gateway's -replication.
//
// Endpoints:
//
//	POST /v1/hierarchy        upload groups, build the region tree
//	                          (recorded as a snapshot event; deprecated
//	                          in favor of the event endpoint below)
//	GET  /v1/hierarchy        list uploaded hierarchies
//	POST /v1/hierarchy/{id}/events
//	                          append delta events; each applied event is
//	                          a new immutable version (If-Match guards
//	                          against concurrent writers)
//	GET  /v1/hierarchy/{id}/versions
//	                          list a hierarchy's immutable versions
//	POST /v1/release          run a topdown/bottomup release
//	                          ("async": true => 202 + job id;
//	                          "version" pins a past hierarchy version)
//	GET  /v1/release          list durable release artifacts
//	GET  /v1/release/{id}     download a release artifact (zero-copy,
//	                          strong ETag, byte ranges)
//	GET  /v1/jobs/{id}        poll an async release job
//	GET  /v1/query/{node}     quantiles, k-th largest, top-coded, Gini
//	POST /v1/query/batch      N node queries in one engine pass
//	GET  /v1/budget/{id}      per-hierarchy privacy-budget position
//	GET  /v1/tenants          per-tenant QoS state and request ledger
//	GET  /healthz             liveness
//	GET  /metrics             Prometheus text metrics
//
// Multi-tenant QoS: the compute pool is shared across hierarchies
// (tenants) by a weighted-fair scheduler with a bounded per-tenant
// queue, while queries and artifact reads ride a strict priority lane
// that never waits behind computations. -compute-slots sizes the pool,
// -compute-queue-depth bounds each tenant's backlog (overflow answers
// 429 with Retry-After), and -tenant-weights-file assigns per-tenant
// weights from a file of "h-<fingerprint> <weight>" lines (# comments;
// "=" also accepted as the separator). GET /v1/tenants reports the
// per-tenant picture.
//
// SIGHUP re-syncs a shared store against its manifest (event logs
// included) and re-reads -tenant-weights-file (and is otherwise
// ignored), so operators can force a refresh or adjust tenant weights
// without a restart. The reload steps are independent and individually
// logged: a malformed weights file cannot mask a failed store refresh
// or vice versa. The full request/response contract is docs/openapi.yaml;
// the Go SDK over it is the repository's client package. To shard this
// surface across several daemons behind one front end, see
// cmd/hcoc-gateway.
//
// Example session:
//
//	hcoc-serve -addr :8080 -data-dir /var/lib/hcoc &
//	curl -s localhost:8080/v1/hierarchy -H 'Content-Type: application/json' \
//	    -d '{"root":"US","groups":[{"path":["CA"],"size":3}]}'
//	curl -s localhost:8080/v1/release -H 'Content-Type: application/json' \
//	    -d '{"hierarchy":"h-...","epsilon":1}'
//	curl -s 'localhost:8080/v1/query/US/CA?release=r-...&q=0.5'
//
// Shared-store fleet:
//
//	hcoc-serve -addr :8081 -store-backend s3 \
//	    -s3-endpoint http://minio:9000 -s3-bucket hcoc -s3-prefix fleet
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hcoc/internal/engine"
	"hcoc/internal/httpx"
	"hcoc/internal/serve"
	"hcoc/internal/store"
)

// storeConfig collects the durable-store flags.
type storeConfig struct {
	backend  string
	dataDir  string
	endpoint string
	bucket   string
	prefix   string
	region   string
}

// open builds the configured store, or nil when no store is asked for.
func (cfg storeConfig) open() (*store.Store, error) {
	switch cfg.backend {
	case "disk":
		if cfg.dataDir == "" {
			return nil, nil // memory only
		}
		return store.Open(cfg.dataDir)
	case "s3":
		if cfg.endpoint == "" || cfg.bucket == "" {
			return nil, errors.New("-store-backend=s3 needs -s3-endpoint and -s3-bucket")
		}
		b, err := store.NewS3(store.S3Options{
			Endpoint: cfg.endpoint,
			Bucket:   cfg.bucket,
			Prefix:   cfg.prefix,
			Region:   cfg.region,
		})
		if err != nil {
			return nil, err
		}
		return store.OpenBackend(b)
	default:
		return nil, fmt.Errorf("unknown -store-backend %q (want disk or s3)", cfg.backend)
	}
}

// qosConfig collects the multi-tenant scheduling flags.
type qosConfig struct {
	slots       int
	queueDepth  int
	weightsFile string
}

// loadWeights parses a tenant-weights file: one "h-<fingerprint>
// <weight>" per line ("=" also works as the separator), # comments and
// blank lines ignored, the "h-" wire prefix optional. Weights must be
// positive. A missing path is an error — a typoed flag should not
// silently run every tenant at weight 1.
func loadWeights(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	weights := map[string]float64{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		fields := strings.Fields(strings.ReplaceAll(text, "=", " "))
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"tenant weight\", got %q", path, line, text)
		}
		w, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("%s:%d: weight %q must be a positive number", path, line, fields[1])
		}
		weights[strings.TrimPrefix(fields[0], "h-")] = w
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return weights, nil
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "default release parallelism (0 = GOMAXPROCS); requests may override")
		cache   = flag.Int("cache", engine.DefaultCacheSize, "completed releases kept in the LRU cache")
		cacheMB = flag.Int64("cache-mb", 0, "byte budget for the release cache in MiB, accounted by runs actually held (0 = count bound only); see the README memory-footprint section for sizing")
		maxEps  = flag.Float64("max-epsilon-per-hierarchy", 0, "cumulative epsilon bound per hierarchy across all computed releases (0 = unenforced); cache/store hits are free, and with a durable store the spend survives restarts")
		maxCont = flag.Float64("max-epsilon-continual", 0, "continual-observation epsilon bound per hierarchy: the spend of every distinct tree among its event log's versions, checked by the same ledger as -max-epsilon-per-hierarchy (0 = unenforced); cache/store hits are free, and with a durable store the account survives restarts")
		cfg     storeConfig
		qos     qosConfig
	)
	flag.IntVar(&qos.slots, "compute-slots", 0, "concurrent release computations across all tenants (0 = GOMAXPROCS, at least 2); queries and artifact reads never consume a slot")
	flag.IntVar(&qos.queueDepth, "compute-queue-depth", 0, "queued release computations allowed per tenant before 429 (0 = default)")
	flag.StringVar(&qos.weightsFile, "tenant-weights-file", "", "file of per-tenant scheduling weights, one \"h-<fingerprint> <weight>\" per line (# comments); re-read on SIGHUP")
	flag.StringVar(&cfg.backend, "store-backend", "disk", "durable store backend: disk (local -data-dir) or s3 (S3-compatible object store, shareable across nodes)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "directory for the disk store; empty = memory only (artifacts and budget state are lost on restart)")
	flag.StringVar(&cfg.endpoint, "s3-endpoint", "", "S3-compatible endpoint URL (e.g. http://minio:9000)")
	flag.StringVar(&cfg.bucket, "s3-bucket", "", "bucket holding the store")
	flag.StringVar(&cfg.prefix, "s3-prefix", "", "key prefix inside the bucket (lets several stores share one bucket)")
	flag.StringVar(&cfg.region, "s3-region", "", "signing region (default us-east-1)")
	flag.Parse()
	if err := run(*addr, *workers, *cache, *cacheMB<<20, *maxEps, *maxCont, cfg, qos); err != nil {
		fmt.Fprintf(os.Stderr, "hcoc-serve: %v\n", err)
		os.Exit(1)
	}
}

// refreshSharedStore is the SIGHUP store step: re-sync a shared store
// against its manifest so artifacts written by other nodes become
// visible, then re-open the hierarchy event logs the refresh may have
// brought in. The engine's budget ledger is not re-read.
func refreshSharedStore(st *store.Store, handler *serve.Server) error {
	if err := st.Refresh(); err != nil {
		return fmt.Errorf("store refresh: %w", err)
	}
	if err := handler.RefreshLogs(); err != nil {
		return fmt.Errorf("event-log refresh: %w", err)
	}
	return nil
}

// reloadTenantWeights is the SIGHUP weights step: re-read the weights
// file and install it, so a tenant's share can be adjusted without a
// restart. Any failure leaves the running weights untouched.
func reloadTenantWeights(eng *engine.Engine, path string) (int, error) {
	w, err := loadWeights(path)
	if err != nil {
		return 0, err
	}
	if err := eng.SetTenantWeights(w); err != nil {
		return 0, err
	}
	return len(w), nil
}

// handleHUP services one SIGHUP: every applicable reload step runs and
// logs its outcome individually — a malformed weights file cannot mask
// a failed store refresh, nor the reverse.
func handleHUP(st *store.Store, handler *serve.Server, eng *engine.Engine, weightsFile string, logf func(format string, args ...any)) {
	acted := false
	if st != nil && st.Shared() {
		acted = true
		if err := refreshSharedStore(st, handler); err != nil {
			logf("hcoc-serve: SIGHUP store refresh failed: %v", err)
		} else {
			logf("hcoc-serve: SIGHUP refreshed shared store (%d releases)", st.Len())
		}
	}
	if weightsFile != "" {
		acted = true
		if n, err := reloadTenantWeights(eng, weightsFile); err != nil {
			logf("hcoc-serve: SIGHUP weights reload failed, keeping current: %v", err)
		} else {
			logf("hcoc-serve: SIGHUP reloaded tenant weights (%d tenants)", n)
		}
	}
	if !acted {
		logf("hcoc-serve: SIGHUP ignored (no shared store or weights file)")
	}
}

func run(addr string, workers, cache int, cacheBytes int64, maxEps, maxCont float64, cfg storeConfig, qos qosConfig) error {
	var weights map[string]float64
	if qos.weightsFile != "" {
		var err error
		if weights, err = loadWeights(qos.weightsFile); err != nil {
			return fmt.Errorf("tenant weights: %w", err)
		}
		fmt.Printf("hcoc-serve: tenant weights loaded (%d tenants)\n", len(weights))
	}
	st, err := cfg.open()
	if err != nil {
		return err
	}
	if st != nil {
		defer st.Close()
		fmt.Printf("hcoc-serve: durable store on %s backend (%d releases, shared=%v)\n", st.Backend(), st.Len(), st.Shared())
	}
	eng := engine.New(engine.Options{
		CacheSize:              cache,
		CacheBytes:             cacheBytes,
		Workers:                workers,
		Store:                  st,
		MaxEpsilonPerHierarchy: maxEps,
		MaxEpsilonContinual:    maxCont,
		ComputeSlots:           qos.slots,
		ComputeQueueDepth:      qos.queueDepth,
		TenantWeights:          weights,
	})
	handler, err := serve.NewServer(eng, st)
	if err != nil {
		return err
	}
	return httpx.Daemon{
		Name:    "hcoc-serve",
		Addr:    addr,
		Handler: handler,
		Banner: fmt.Sprintf("hcoc-serve: listening on %s (cache=%d workers=%d compute-slots=%d)",
			addr, cache, workers, eng.Scheduler().Slots()),
		OnHUP: func() {
			handleHUP(st, handler, eng, qos.weightsFile, func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			})
		},
	}.Run()
}
