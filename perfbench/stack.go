package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/gateway"
	"hcoc/internal/serve"
	"hcoc/internal/store"
	"hcoc/internal/store/s3stub"
	"hcoc/perfbench/loadgen"
)

// storeKind selects the serving topology a workload runs on.
type storeKind int

const (
	// diskNode is one serve node on the disk store.
	diskNode storeKind = iota
	// s3Node is one serve node on the S3 backend over an in-process stub.
	s3Node
	// s3Cluster is a gateway in front of two serve nodes sharing one
	// stub bucket.
	s3Cluster
)

// stackSpec describes the stack a workload runs against.
type stackSpec struct {
	kind storeKind
	// cacheSize bounds each engine's release LRU; 0 keeps the engine
	// default.
	cacheSize int
}

const (
	// clients bounds the generator's connections and computeSlots each
	// engine's compute pool: the benchmark was sized on a 2-core
	// machine, and at most 2 closed-loop clients against 2 slots never
	// queue.
	clients      = 2
	computeSlots = 2
	// bucket is the stub bucket of the S3 stacks.
	bucket = "perfbench"
	// opTimeout bounds one SDK call, so a hung stack fails the run
	// instead of stalling it.
	opTimeout = 60 * time.Second
)

// node is one serve tier instance.
type node struct {
	st   *store.Store
	eng  *engine.Engine
	http *listener
}

// stack is the serving stack of one set-up round, with the generator's
// SDK client for it.
type stack struct {
	spec  stackSpec
	dir   string // disk store directory
	clock loadgen.Clock
	tr    *tracer // nil when untraced
	c     *client.Client
	ct    *http.Transport // the generator client's transport

	nodes []*node
	gw    *listener
	gwt   *http.Transport // the gateway's transport to its backends
	stub  *s3stub.Server
	stubL *listener
	s3c   *http.Client

	mu       sync.Mutex
	releases []client.Release // every release answered through c
	loadFrom int              // index of the first load-phase release
}

// newStack builds the stack spec names, traced or not.
func newStack(spec stackSpec, dir string, traced bool) (*stack, error) {
	s := &stack{spec: spec, dir: dir, clock: loadgen.NewClock()}
	if traced {
		s.tr = &tracer{clock: s.clock}
	}
	if err := s.build(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) build() error {
	n := 1
	if s.spec.kind == s3Cluster {
		n = 2
	}
	if s.spec.kind != diskNode {
		s.stub = s3stub.New(bucket)
		var h http.Handler = s.stub
		if s.tr != nil {
			h = s.tr.stubHandler(h)
		}
		var err error
		if s.stubL, err = listen(h); err != nil {
			return err
		}
		s.s3c = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	for i := 0; i < n; i++ {
		if err := s.addNode(); err != nil {
			return err
		}
	}
	target := s.nodes[0].http.url
	if s.spec.kind == s3Cluster {
		if err := s.addGateway(); err != nil {
			return err
		}
		target = s.gw.url
	}
	s.ct = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	var rt http.RoundTripper = s.ct
	if s.tr != nil {
		s.ct.DialContext = s.tr.dial
		rt = s.tr.transport(s.ct)
	}
	c, err := client.New(target, client.WithHTTPClient(&http.Client{Transport: rt, Timeout: opTimeout}))
	if err != nil {
		return err
	}
	s.c = c
	return nil
}

// openBlob opens a backend over the stack's store: the disk directory,
// or the stub bucket with fixed credentials, so that every request is
// signed as against a real endpoint (the stub does not check them).
func (s *stack) openBlob() (store.BlobStore, error) {
	if s.stub == nil {
		d, err := store.NewDisk(s.dir)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
	b, err := store.NewS3(store.S3Options{
		Endpoint: s.stubL.url, Bucket: bucket,
		AccessKey: "perfbench", SecretKey: "perfbench", Client: s.s3c,
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// addNode starts one serve node: its store, engine and server.
func (s *stack) addNode() error {
	b, err := s.openBlob()
	if err != nil {
		return err
	}
	if s.tr != nil {
		b = s.tr.blob(b)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		b.Close()
		return err
	}
	eng := engine.New(engine.Options{Store: st, ComputeSlots: computeSlots, CacheSize: s.spec.cacheSize})
	srv, err := serve.NewServer(eng, st)
	if err != nil {
		st.Close()
		return err
	}
	var h http.Handler = srv
	if s.tr != nil {
		h = s.tr.handler(loadgen.LayerServe, h)
	}
	l, err := listen(h)
	if err != nil {
		st.Close()
		return err
	}
	s.nodes = append(s.nodes, &node{st: st, eng: eng, http: l})
	return nil
}

// addGateway starts a gateway over the nodes: shared store, replication
// 2, and never started, so no background probe or repair traffic mixes
// into the measurement. Its backend clients keep the gateway's default
// of one retry beside the transport the benchmark installs.
func (s *stack) addGateway() error {
	backends := make([]string, len(s.nodes))
	for i, n := range s.nodes {
		backends[i] = n.http.url
	}
	s.gwt = &http.Transport{MaxIdleConnsPerHost: 16}
	var rt http.RoundTripper = s.gwt
	if s.tr != nil {
		rt = s.tr.transport(s.gwt)
	}
	gw, err := gateway.New(gateway.Options{
		Backends:       backends,
		Replication:    2,
		SharedStore:    true,
		RepairInterval: -1,
		ClientOptions: []client.Option{
			client.WithHTTPClient(&http.Client{Transport: rt, Timeout: opTimeout}),
			client.WithMaxRetries(1),
		},
	})
	if err != nil {
		return err
	}
	var h http.Handler = gw
	if s.tr != nil {
		h = s.tr.handler(loadgen.LayerGateway, h)
	}
	s.gw, err = listen(h)
	return err
}

// close stops everything the stack started and removes its disk store.
func (s *stack) close() {
	if s.ct != nil {
		s.ct.CloseIdleConnections()
	}
	if s.gw != nil {
		s.gw.close()
		s.gw = nil
	}
	if s.gwt != nil {
		s.gwt.CloseIdleConnections()
	}
	s.closeNodes()
	if s.stubL != nil {
		s.stubL.close()
		s.stubL = nil
	}
	if s.s3c != nil {
		s.s3c.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}

// closeNodes stops the serve nodes and closes their stores.
func (s *stack) closeNodes() {
	for _, n := range s.nodes {
		n.http.close()
		n.st.Close()
	}
	s.nodes = nil
}

// release issues one POST /v1/release through the generator's client
// and books how it was answered.
func (s *stack) release(ctx context.Context, req client.ReleaseRequest) (client.Release, error) {
	rel, err := s.c.Release(ctx, req)
	if err == nil {
		s.mu.Lock()
		s.releases = append(s.releases, rel)
		s.mu.Unlock()
	}
	return rel, err
}

// markLoad starts the load phase's share of the release book.
func (s *stack) markLoad() {
	s.mu.Lock()
	s.loadFrom = len(s.releases)
	s.mu.Unlock()
}

// answered returns the releases answered so far, or only those of the
// load phase.
func (s *stack) answered(load bool) []client.Release {
	s.mu.Lock()
	defer s.mu.Unlock()
	from := 0
	if load {
		from = s.loadFrom
	}
	return append([]client.Release(nil), s.releases[from:]...)
}

// computed reports whether a release response drew fresh noise.
func computed(r client.Release) bool {
	return !r.CacheHit && !r.StoreHit && !r.Deduped && !r.PeerHit
}

// checkEpsilon verifies that the engines charged epsilon for every
// release that computed and nothing for the rest. Epsilon is a power of
// two, so the sums are exact.
func (s *stack) checkEpsilon() error {
	var spent, want float64
	for _, n := range s.nodes {
		spent += n.eng.Metrics().EpsilonSpentLocal
	}
	for _, r := range s.answered(false) {
		if computed(r) {
			want += epsilon
		}
	}
	if spent != want {
		return fmt.Errorf("the engines spent epsilon %g, want %g for the releases that computed", spent, want)
	}
	return nil
}

// snapshot is the stack's exported counters at one instant, summed over
// its engines: engine.Metrics, engine.TenantStats,
// sched.Scheduler.Snapshot and s3stub.Server.Stats, with the tracer's
// counters when traced.
type snapshot struct {
	releaseTotal, queueWait                 time.Duration
	releases, incremental                   uint64
	nodesEstimated, nodesTotal              uint64
	requests, cacheHits, deduped, storeHits uint64
	granted, rejected                       uint64
	cacheBytes, stateBytes                  int64
	stubGets                                int
	trace                                   traceCounters
}

func (s *stack) snapshot() snapshot {
	var sn snapshot
	for _, n := range s.nodes {
		m := n.eng.Metrics()
		sn.releaseTotal += m.ReleaseTotal
		sn.releases += m.Releases
		sn.incremental += m.IncrementalReleases
		sn.nodesEstimated += m.RecomputeNodesEstimated
		sn.nodesTotal += m.RecomputeNodesTotal
		sn.cacheBytes += m.CacheCostBytes
		sn.stateBytes += m.StateCostBytes
		for _, t := range n.eng.TenantStats() {
			sn.requests += t.Requests
			sn.cacheHits += t.CacheHits
			sn.deduped += t.Deduped
			sn.storeHits += t.StoreHits
			sn.granted += t.Granted
			sn.queueWait += t.QueueWait
		}
		sn.rejected += n.eng.Scheduler().Snapshot().Rejected
	}
	if s.stub != nil {
		_, sn.stubGets = s.stub.Stats()
	}
	if s.tr != nil {
		sn.trace = s.tr.counters()
	}
	return sn
}

// replay closes the serve nodes and times one cold start over the store
// they wrote: store.OpenBackend, engine.New and serve.NewServer, the
// work a restarted node does before it serves. It returns the duration
// in seconds and the event chunks the store indexes.
func (s *stack) replay() (float64, int64, error) {
	s.closeNodes()
	start := time.Now()
	b, err := s.openBlob()
	if err != nil {
		return 0, 0, err
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		b.Close()
		return 0, 0, fmt.Errorf("replaying the store: %w", err)
	}
	defer st.Close()
	eng := engine.New(engine.Options{Store: st, ComputeSlots: computeSlots, CacheSize: s.spec.cacheSize})
	if _, err := serve.NewServer(eng, st); err != nil {
		return 0, 0, fmt.Errorf("replaying the event logs: %w", err)
	}
	secs := time.Since(start).Seconds()
	var chunks int64
	for _, n := range st.EventLogs() {
		chunks += n
	}
	return secs, chunks, nil
}

// heldMB returns the megabytes the stack's blob store holds.
func (s *stack) heldMB() (float64, error) {
	var total int64
	if s.stub == nil {
		err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || !d.Type().IsRegular() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		return float64(total) / 1e6, err
	}
	b, err := s.openBlob()
	if err != nil {
		return 0, err
	}
	infos, err := b.List("")
	for _, info := range infos {
		total += info.Size
	}
	return float64(total) / 1e6, err
}

// listener serves one handler on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to end.
func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}
