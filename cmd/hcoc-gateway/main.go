// Command hcoc-gateway is the sharded-serving front end: it exposes
// the same /v1 surface as a single hcoc-serve daemon, but routes every
// request across a fleet of them on a consistent-hash ring keyed by
// hierarchy fingerprint.
//
// Storage: the fleet shares one blob store — every backend runs
// hcoc-serve -store-backend=s3 on the same bucket and prefix — so any
// backend can read any release. That is the only multi-node
// deployment; the gateway never copies artifacts between nodes.
//
// Placement: each hierarchy is owned by -replication backends in a
// deterministic primary→replica order. Uploads and event appends fan
// out to every owner; a release runs on the primary and its artifact
// lands in the shared store. When a backend dies, reads and batches —
// cross-release ones included, which forward whole — fail over down
// the replica order and keep serving the exact same bytes.
// Cluster-wide listings scatter-gather over the live backends and
// merge deduplicated results.
//
// Budget: each backend enforces -max-epsilon-per-hierarchy on its own
// ledger, which reads the shared manifest only at start-up. While
// clients reach the backends solely through the gateway and membership
// holds still, a hierarchy can spend at most R × that bound across the
// fleet; a node that becomes an owner later brings a ledger of its own.
//
// Health: every backend is probed at -probe-interval; -fail-threshold
// consecutive failures (probes and forwarded requests share the
// counter) eject a backend from preferred routing, and the first
// success re-admits it. GET /v1/cluster shows the topology — ring
// parameters, per-backend health and traffic counters, and, with
// ?key=h-<fp>, a key's current failover route.
//
// Elasticity: membership is live. POST/DELETE /v1/cluster/nodes join
// and drain backends at runtime, and SIGHUP re-reads -backends-file
// and applies the delta; each change moves at most ~1/(N+1) of the key
// space. A joining node reads every release from the shared store
// straight away, and a drained node's releases stay readable by the
// survivors.
//
// Example:
//
//	hcoc-s3stub -addr :9000 -buckets hcoc &
//	for p in 8081 8082 8083; do
//	    hcoc-serve -addr :$p -store-backend s3 \
//	        -s3-endpoint http://localhost:9000 -s3-bucket hcoc -s3-prefix fleet &
//	done
//	hcoc-gateway -addr :8080 \
//	    -backends http://localhost:8081,http://localhost:8082,http://localhost:8083 \
//	    -replication 2
//	curl -s localhost:8080/v1/cluster | jq .
//
// Clients speak to the gateway exactly as they would to a single
// daemon — the client SDK and hcoc-load work unchanged (hcoc-load can
// also target several gateways at once with -targets).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hcoc/internal/gateway"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		backends     = flag.String("backends", "", "comma-separated hcoc-serve base URLs")
		backendsFile = flag.String("backends-file", "", "file listing backend URLs (one per line, # comments); SIGHUP re-reads it and applies joins/leaves")
		repl         = flag.Int("replication", 0, "backends owning each hierarchy (0 = default 2, clamped to the fleet size)")
		vnodes       = flag.Int("virtual-nodes", 0, "ring points per backend (0 = default 128)")
		interval     = flag.Duration("probe-interval", 0, "health-probe period (0 = default 2s)")
		thresh       = flag.Int("fail-threshold", 0, "consecutive failures that eject a backend (0 = default 3)")
	)
	flag.Parse()
	urls, static, err := initialBackends(*backends, *backendsFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hcoc-gateway: %v\n", err)
		os.Exit(2)
	}
	cfg := config{
		addr:         *addr,
		backends:     urls,
		static:       static,
		backendsFile: *backendsFile,
		repl:         *repl,
		vnodes:       *vnodes,
		interval:     *interval,
		thresh:       *thresh,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hcoc-gateway: %v\n", err)
		os.Exit(1)
	}
}

// config carries the parsed flags into run.
type config struct {
	addr         string
	backends     []string // initial membership (static ∪ file)
	static       []string // -backends URLs; always members across reloads
	backendsFile string
	repl         int
	vnodes       int
	interval     time.Duration
	thresh       int
}

// initialBackends resolves the starting membership from -backends
// and/or -backends-file; when both are given the union is used, so a
// fleet can have a static core plus a reloadable tail. The static list
// is returned separately — SIGHUP reloads never remove its members.
func initialBackends(flagList, file string) (all, static []string, err error) {
	if strings.TrimSpace(flagList) != "" {
		static, err = parseBackends(flagList)
		if err != nil {
			return nil, nil, err
		}
	}
	var fromFile []string
	if file != "" {
		fromFile, err = readBackendsFile(file)
		if err != nil {
			return nil, nil, err
		}
	}
	all = mergeBackends(static, fromFile)
	if len(all) == 0 {
		return nil, nil, fmt.Errorf("-backends or -backends-file is required")
	}
	return all, static, nil
}

// mergeBackends unions URL lists preserving first-seen order.
func mergeBackends(lists ...[]string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, l := range lists {
		for _, u := range l {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// readBackendsFile parses a membership file: one URL per token,
// whitespace- or comma-separated, blank lines and #-comments ignored.
func readBackendsFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading -backends-file: %w", err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		for _, tok := range strings.FieldsFunc(line, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' || r == '\r' }) {
			u := strings.TrimSuffix(tok, "/")
			if !strings.Contains(u, "://") {
				return nil, fmt.Errorf("%s: backend %q needs a scheme (http://host:port)", path, tok)
			}
			out = append(out, u)
		}
	}
	return out, nil
}

// parseBackends splits and validates the -backends list.
func parseBackends(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-backends is required (comma-separated base URLs)")
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		u := strings.TrimSuffix(strings.TrimSpace(part), "/")
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			return nil, fmt.Errorf("backend %q needs a scheme (http://host:port)", part)
		}
		out = append(out, u)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-backends lists no URLs")
	}
	return out, nil
}

func run(cfg config) error {
	gw, err := gateway.New(gateway.Options{
		Backends:      cfg.backends,
		Replication:   cfg.repl,
		VirtualNodes:  cfg.vnodes,
		ProbeInterval: cfg.interval,
		FailThreshold: cfg.thresh,
	})
	if err != nil {
		return err
	}
	gw.Start()
	defer gw.Stop()

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           gw,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP re-reads -backends-file and applies the delta as runtime
	// joins/leaves — the same code path as POST/DELETE /v1/cluster/nodes,
	// so the movement bound applies.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if cfg.backendsFile == "" {
				fmt.Println("hcoc-gateway: SIGHUP ignored (no -backends-file to reload)")
				continue
			}
			if err := reload(gw, cfg); err != nil {
				fmt.Fprintf(os.Stderr, "hcoc-gateway: reload: %v\n", err)
			}
		}
	}()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("hcoc-gateway: listening on %s over %d backends (replication=%d)\n",
			cfg.addr, len(cfg.backends), gw.Cluster().Replication())
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Println("hcoc-gateway: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// reload diffs the desired membership (static -backends ∪ the current
// -backends-file contents) against the ring, applying joins before
// leaves so capacity never dips mid-reload. Errors on individual nodes
// are reported and skipped — one bad URL must not wedge the rest of
// the reload.
func reload(gw *gateway.Gateway, cfg config) error {
	fromFile, err := readBackendsFile(cfg.backendsFile)
	if err != nil {
		return err
	}
	desired := mergeBackends(cfg.static, fromFile)
	if len(desired) == 0 {
		return fmt.Errorf("%s lists no backends; keeping current membership", cfg.backendsFile)
	}
	want := make(map[string]bool, len(desired))
	for _, u := range desired {
		want[u] = true
	}
	current := gw.Cluster().Backends()
	have := make(map[string]bool, len(current))
	for _, u := range current {
		have[u] = true
	}
	for _, u := range desired {
		if have[u] {
			continue
		}
		if joined, err := gw.AddBackend(u); err != nil {
			fmt.Fprintf(os.Stderr, "hcoc-gateway: reload: join %s: %v\n", u, err)
		} else if joined {
			fmt.Printf("hcoc-gateway: reload: joined %s\n", u)
		}
	}
	for _, u := range current {
		if want[u] {
			continue
		}
		if err := gw.RemoveBackend(u); err != nil {
			fmt.Fprintf(os.Stderr, "hcoc-gateway: reload: leave %s: %v\n", u, err)
		} else {
			fmt.Printf("hcoc-gateway: reload: removed %s\n", u)
		}
	}
	return nil
}
