package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hcoc"
	"hcoc/client"
	"hcoc/perfbench/loadgen"
)

// Workload sizes, fixed so that runs compare across commits. They were
// chosen on a 2-core machine; doc.go says what each one loads.
const (
	// epsilon is every release's budget. A power of two keeps the
	// engines' spend sums exact, so the epsilon check compares with ==.
	epsilon = 1.0
	// rootRegion names every hierarchy's root.
	rootRegion = "US"
	// censusRegions and censusScale size the fresh-release hierarchy.
	censusRegions = 4
	censusScale   = 1.0
	// housingScale and housingK size the read and ingest hierarchy; K
	// sits above the generator's largest group (10000).
	housingScale = 0.05
	housingK     = 10000
	// batchSize is the number of entries of a batch or cross-release
	// query.
	batchSize = 16
	// freshClients is fresh-release's closed-loop client count. On the
	// 2-core machine two concurrent computations slowed each other by
	// about 45% (median 99 ms against 68 ms in alternating runs) and
	// spread 0.105 of the median against 0.064, so one client measures
	// Algorithm 1 rather than contention between two of them.
	freshClients = 1
	// The ingest schedule: writer cycles and reader queries per second,
	// the reader's in-flight bound, the pre-seeded history and the
	// engine's LRU bound. doc.go gives the basis of each.
	writerRate     = 4.0
	readerRate     = 8 * writerRate
	readerBound    = 4
	historyBatches = 6
	historyBatch   = 8
	ingestLRU      = 8
	// keepAnswers bounds the served answers a run keeps for its checks.
	keepAnswers = 256
	// Generator streams beyond the clients' (0 and 1): set-up's warm
	// releases, the synthetic data, and the ingest deltas.
	warmStream  = 100
	dataStream  = 101
	deltaStream = 1000
)

var (
	releaseOnly = loadgen.Mix{{Class: loadgen.Release, N: 1}}
	appendOnly  = loadgen.Mix{{Class: loadgen.Append, N: 1}}
	queryOnly   = loadgen.Mix{{Class: loadgen.Query, N: 1}}
	// readMixWeights is the fixed mix of read-mix and cluster-read: the
	// mix the repository documents for hcoc-load
	// (release=1,query=8,batch=1,cross=1), plus downloads, which
	// hcoc-load does not issue, at the weight of its rarest operation.
	readMixWeights = loadgen.Mix{
		{Class: loadgen.Query, N: 8},
		{Class: loadgen.Batch, N: 1},
		{Class: loadgen.Cross, N: 1},
		{Class: loadgen.Download, N: 1},
		{Class: loadgen.Release, N: 1},
	}
	// queryParams are the statistics every node query asks for.
	queryParams = client.QueryParams{Quantiles: []float64{0.5, 0.9}, TopCode: 8}
)

// workload is one benchmark traffic shape.
type workload interface {
	// spec names the stack the workload runs on.
	spec() stackSpec
	// setup prepares a fresh stack: uploads, warm releases, history.
	setup(ctx context.Context, s *stack) error
	// load drives the stack for dur from start.
	load(d *issuer, start time.Time, dur time.Duration)
	// check verifies what the run served, after the load phase.
	check(ctx context.Context, s *stack) []error
	// kernel names the tree and K the traced run times the kernels on.
	kernel() (*hcoc.Tree, int)
	// layers names the layers the load phase crosses, whose self time a
	// traced run must find positive.
	layers() []string
}

// workloads maps each workload name to the constructor that generates
// its inputs from the run seed.
var workloads = map[string]func(seed int64) (workload, error){
	"fresh-release": newFreshRelease,
	"read-mix":      func(seed int64) (workload, error) { return newReadMix(seed, false) },
	"ingest":        newIngest,
	"cluster-read":  func(seed int64) (workload, error) { return newReadMix(seed, true) },
}

// workloadNames lists the workloads in sorted order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// issuer sends the SDK calls of one load phase, timing each as one
// operation.
type issuer struct {
	s   *stack
	rec *loadgen.Recorder
	ops atomic.Int64
}

// closed times a closed-loop operation, due when it is sent.
func (d *issuer) closed(class loadgen.Class, call func(context.Context) error) error {
	return d.timed(class, time.Time{}, call)
}

// open times an open-loop operation that fell due at due.
func (d *issuer) open(class loadgen.Class, due time.Time, call func(context.Context) error) error {
	return d.timed(class, due, call)
}

// dropped records an open-loop operation the in-flight bound kept from
// being sent.
func (d *issuer) dropped(op loadgen.Op, due time.Time) {
	at := d.s.clock.Since(due)
	d.rec.Add(loadgen.Sample{Class: op.Class, Due: at, Start: at, End: at, Dropped: true})
}

func (d *issuer) timed(class loadgen.Class, due time.Time, call func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	op := d.ops.Add(1)
	var span int64
	if d.s.tr != nil {
		span = d.s.tr.spans.NewID()
		ctx = context.WithValue(ctx, traceKey{}, traceCtx{op: op, parent: span})
	}
	start := d.s.clock.Now()
	dueAt := start
	if !due.IsZero() {
		dueAt = d.s.clock.Since(due)
	}
	err := call(ctx)
	end := d.s.clock.Now()
	if d.s.tr != nil {
		d.s.tr.spans.Add(loadgen.Span{ID: span, Op: op, Layer: loadgen.LayerClient, Name: string(class), Start: start, End: end})
	}
	d.rec.Add(loadgen.Sample{Class: class, Due: dueAt, Start: start, End: end, Err: err})
	return err
}

// streams returns the generators of a closed loop's n clients.
func streams(seed int64, n int, mix loadgen.Mix) []*loadgen.Generator {
	gens := make([]*loadgen.Generator, n)
	for i := range gens {
		gens[i] = loadgen.NewGenerator(seed, i, mix)
	}
	return gens
}

// spread picks up to n elements spread evenly over xs, the first and
// last included.
func spread(xs []string, n int) []string {
	if len(xs) <= n {
		return xs
	}
	out := make([]string, n)
	for i := range out {
		out[i] = xs[i*(len(xs)-1)/(n-1)]
	}
	return out
}

// nodePaths lists a tree's node paths, the queries' targets.
func nodePaths(tree *hcoc.Tree) []string {
	var out []string
	for _, n := range tree.Nodes() {
		out = append(out, n.Path)
	}
	return out
}

// freshRelease sends only releases with never-used seeds, so every one
// computes.
type freshRelease struct {
	seed   int64
	groups []hcoc.Group
	tree   *hcoc.Tree
	hier   string
}

func newFreshRelease(seed int64) (workload, error) {
	all, err := hcoc.SyntheticGroups(hcoc.DatasetRaceHawaiian, hcoc.DatasetConfig{
		Seed: loadgen.StreamSeed(seed, dataStream), Scale: censusScale, Levels: 2,
	})
	if err != nil {
		return nil, err
	}
	groups := firstRegions(all, censusRegions)
	tree, err := hcoc.BuildHierarchy(rootRegion, groups)
	if err != nil {
		return nil, err
	}
	return &freshRelease{seed: seed, groups: groups, tree: tree}, nil
}

// firstRegions keeps the groups of the first n top-level regions, in
// generation order.
func firstRegions(groups []hcoc.Group, n int) []hcoc.Group {
	keep := make(map[string]bool, n)
	var out []hcoc.Group
	for _, g := range groups {
		if r := g.Path[0]; !keep[r] {
			if len(keep) == n {
				continue
			}
			keep[r] = true
		}
		out = append(out, g)
	}
	return out
}

func (w *freshRelease) spec() stackSpec           { return stackSpec{kind: diskNode} }
func (w *freshRelease) kernel() (*hcoc.Tree, int) { return w.tree, hcoc.DefaultK }
func (w *freshRelease) layers() []string          { return []string{"client", "serve", "compute", "blob"} }

// request leaves k out, so the server applies hcoc.DefaultK, as it does
// for any caller that omits it.
func (w *freshRelease) request(seed int64) client.ReleaseRequest {
	return client.ReleaseRequest{Hierarchy: w.hier, Epsilon: epsilon, Seed: seed}
}

func (w *freshRelease) setup(ctx context.Context, s *stack) error {
	h, err := s.c.UploadHierarchy(ctx, rootRegion, w.groups)
	if err != nil {
		return fmt.Errorf("uploading the hierarchy: %w", err)
	}
	w.hier = h.ID
	warm := loadgen.NewGenerator(w.seed, warmStream, releaseOnly)
	for i := 0; i < 2; i++ {
		if _, err := s.release(ctx, w.request(warm.Next().Arg)); err != nil {
			return fmt.Errorf("warm release: %w", err)
		}
	}
	return nil
}

func (w *freshRelease) load(d *issuer, start time.Time, dur time.Duration) {
	loadgen.Closed(start.Add(dur), streams(w.seed, freshClients, releaseOnly), func(op loadgen.Op) {
		_ = d.closed(op.Class, func(ctx context.Context) error {
			_, err := d.s.release(ctx, w.request(op.Arg))
			return err
		})
	})
}

func (w *freshRelease) check(ctx context.Context, s *stack) []error {
	var ids []string
	for _, r := range s.answered(false) {
		if computed(r) {
			ids = append(ids, r.Release)
		}
	}
	var errs []error
	for _, id := range spread(ids, 4) {
		rel, _, err := s.c.DownloadRelease(ctx, id)
		if err == nil {
			err = hcoc.CheckSparse(w.tree, rel)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("release %s: %w", id, err))
		}
	}
	if err := s.checkEpsilon(); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// housing generates the 3-level west-coast housing hierarchy the read
// and ingest workloads share.
func housing(seed int64) ([]hcoc.Group, *hcoc.Tree, error) {
	groups, err := hcoc.SyntheticGroups(hcoc.DatasetHousing, hcoc.DatasetConfig{
		Seed: loadgen.StreamSeed(seed, dataStream), Scale: housingScale, Levels: 3, WestCoast: true,
	})
	if err != nil {
		return nil, nil, err
	}
	tree, err := hcoc.BuildHierarchy(rootRegion, groups)
	return groups, tree, err
}

// readMix answers reads of releases warmed in set-up, on one node or
// through the gateway.
type readMix struct {
	seed    int64
	cluster bool
	groups  []hcoc.Group
	tree    *hcoc.Tree
	nodes   []string
	want    map[string]int64 // public group count per node

	hier string
	reqs []client.ReleaseRequest // the warm releases: two Hc seeds, Hg, a third seed
	ids  []string

	mu     sync.Mutex
	kept   map[string]hcoc.SparseHistograms // first download of each release
	counts []nodeCount                      // sampled group counts served
}

// nodeCount is one served answer: the group count reported for a node.
type nodeCount struct {
	node   string
	groups int64
}

func newReadMix(seed int64, cluster bool) (workload, error) {
	groups, tree, err := housing(seed)
	if err != nil {
		return nil, err
	}
	w := &readMix{seed: seed, cluster: cluster, groups: groups, tree: tree, nodes: nodePaths(tree), want: map[string]int64{}}
	for _, n := range tree.Nodes() {
		w.want[n.Path] = n.G()
	}
	return w, nil
}

func (w *readMix) spec() stackSpec {
	if w.cluster {
		return stackSpec{kind: s3Cluster}
	}
	return stackSpec{kind: diskNode}
}

func (w *readMix) kernel() (*hcoc.Tree, int) { return w.tree, housingK }

// layers leaves compute out: every release of the mix is a cache hit.
func (w *readMix) layers() []string {
	if w.cluster {
		return []string{"client", "gateway", "serve", "blob", "s3stub"}
	}
	return []string{"client", "serve", "blob"}
}

func (w *readMix) setup(ctx context.Context, s *stack) error {
	h, err := s.c.UploadHierarchy(ctx, rootRegion, w.groups)
	if err != nil {
		return fmt.Errorf("uploading the hierarchy: %w", err)
	}
	w.hier = h.ID
	warm := loadgen.NewGenerator(w.seed, warmStream, releaseOnly)
	a, b, c := warm.Next().Arg, warm.Next().Arg, warm.Next().Arg
	w.reqs = []client.ReleaseRequest{
		{Hierarchy: w.hier, Epsilon: epsilon, K: housingK, Seed: a},
		{Hierarchy: w.hier, Epsilon: epsilon, K: housingK, Seed: b},
		{Hierarchy: w.hier, Epsilon: epsilon, K: housingK, Seed: a, Methods: []string{"hg"}},
		{Hierarchy: w.hier, Epsilon: epsilon, K: housingK, Seed: c},
	}
	w.ids = nil
	for _, req := range w.reqs {
		rel, err := s.release(ctx, req)
		if err != nil {
			return fmt.Errorf("warm release: %w", err)
		}
		w.ids = append(w.ids, rel.Release)
	}
	w.mu.Lock()
	w.kept, w.counts = make(map[string]hcoc.SparseHistograms), nil
	w.mu.Unlock()
	return nil
}

func (w *readMix) load(d *issuer, start time.Time, dur time.Duration) {
	loadgen.Closed(start.Add(dur), streams(w.seed, clients, readMixWeights), func(op loadgen.Op) {
		_ = d.closed(op.Class, func(ctx context.Context) error {
			return w.issue(ctx, d.s, op.Class, op.Params())
		})
	})
}

// issue sends one read-mix operation.
func (w *readMix) issue(ctx context.Context, s *stack, class loadgen.Class, p *loadgen.Params) error {
	switch class {
	case loadgen.Query:
		id, node := w.ids[p.Intn(len(w.ids))], w.nodes[p.Intn(len(w.nodes))]
		rep, err := s.c.Query(ctx, id, node, queryParams)
		if err != nil {
			return err
		}
		w.observe(node, rep.Groups)
	case loadgen.Batch:
		id := w.ids[p.Intn(len(w.ids))]
		qs := make([]client.NodeQuery, batchSize)
		for i := range qs {
			qs[i] = client.NodeQuery{Node: w.nodes[p.Intn(len(w.nodes))], Quantiles: queryParams.Quantiles, TopCode: queryParams.TopCode}
		}
		res, err := s.c.BatchQuery(ctx, id, qs)
		if err != nil {
			return err
		}
		for i, r := range res {
			if r.Error != "" {
				return fmt.Errorf("batch entry %s: %s", qs[i].Node, r.Error)
			}
			w.observe(qs[i].Node, r.Groups)
		}
	case loadgen.Cross:
		qs := make([]client.NodeQuery, batchSize)
		for i := range qs {
			qs[i] = w.crossQuery(p)
		}
		res, err := s.c.BatchQuery(ctx, "", qs)
		if err != nil {
			return err
		}
		for i, r := range res {
			if r.Error != "" {
				return fmt.Errorf("cross entry %s %s: %s", qs[i].Op, qs[i].Node, r.Error)
			}
		}
	case loadgen.Download:
		id := w.ids[p.Intn(len(w.ids))]
		rel, _, err := s.c.DownloadRelease(ctx, id)
		if err != nil {
			return err
		}
		w.mu.Lock()
		if _, ok := w.kept[id]; !ok {
			w.kept[id] = rel
		}
		w.mu.Unlock()
	case loadgen.Release:
		_, err := s.release(ctx, w.reqs[p.Intn(len(w.reqs))])
		return err
	}
	return nil
}

// crossQuery draws one cross-release entry: emd or delta between the
// two Hc releases, a series over the three Hc releases, or compare of
// Hc against Hg.
func (w *readMix) crossQuery(p *loadgen.Params) client.NodeQuery {
	a, b, hg, c := w.ids[0], w.ids[1], w.ids[2], w.ids[3]
	q := client.NodeQuery{Node: w.nodes[p.Intn(len(w.nodes))]}
	switch p.Intn(4) {
	case 0:
		q.Op, q.Releases = "emd", []string{a, b}
	case 1:
		q.Op, q.Releases = "delta", []string{a, b}
	case 2:
		q.Op, q.Releases = "series", []string{a, b, c}
	default:
		q.Op, q.Releases = "compare", []string{a, hg}
	}
	return q
}

// observe keeps a served group count for the checks.
func (w *readMix) observe(node string, groups int64) {
	w.mu.Lock()
	if len(w.counts) < keepAnswers {
		w.counts = append(w.counts, nodeCount{node, groups})
	}
	w.mu.Unlock()
}

func (w *readMix) check(_ context.Context, s *stack) []error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var errs []error
	if len(w.kept) == 0 {
		errs = append(errs, errors.New("no artifact was downloaded"))
	}
	for id, rel := range w.kept {
		if err := hcoc.CheckSparse(w.tree, rel); err != nil {
			errs = append(errs, fmt.Errorf("downloaded artifact %s: %w", id, err))
		}
	}
	for _, c := range w.counts {
		if c.groups != w.want[c.node] {
			errs = append(errs, fmt.Errorf("node %s served %d groups, the hierarchy has %d", c.node, c.groups, w.want[c.node]))
		}
	}
	if err := s.checkEpsilon(); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// ingest appends deltas and releases each new version while a reader
// queries current and past releases.
type ingest struct {
	seed    int64
	initial []hcoc.Group
	tree    *hcoc.Tree
	leaves  [][]string
	nodes   []string

	hier     string
	mu       sync.Mutex
	applied  int              // deltas the log holds
	headFP   string           // head fingerprint: the next append's If-Match
	head     string           // newest release
	ids      []string         // every release the reader may query
	versions map[string]int64 // load-phase writer release -> version
	order    []string         // load-phase writer releases, in order
}

func newIngest(seed int64) (workload, error) {
	groups, tree, err := housing(seed)
	if err != nil {
		return nil, err
	}
	w := &ingest{seed: seed, initial: groups, tree: tree, nodes: nodePaths(tree)}
	for _, leaf := range tree.Leaves() {
		w.leaves = append(w.leaves, strings.Split(leaf.Path, "/")[1:])
	}
	return w, nil
}

func (w *ingest) spec() stackSpec           { return stackSpec{kind: s3Node, cacheSize: ingestLRU} }
func (w *ingest) kernel() (*hcoc.Tree, int) { return w.tree, housingK }
func (w *ingest) layers() []string {
	return []string{"client", "serve", "compute", "blob", "s3stub"}
}

// delta is the group the i-th delta adds: one group of size 1 to 7
// under an existing leaf, so every delta applies.
func (w *ingest) delta(i int) hcoc.Group {
	p := loadgen.NewParams(loadgen.StreamSeed(w.seed, deltaStream+i))
	return hcoc.Group{Path: w.leaves[p.Intn(len(w.leaves))], Size: int64(1 + p.Intn(7))}
}

func (w *ingest) event(i int) client.Event {
	g := w.delta(i)
	return client.DeltaEvent([]client.EventGroup{{Path: g.Path, Size: g.Size}}, nil, nil)
}

// request releases one version with the workload's fixed epsilon, K
// and seed, so consecutive versions recompute incrementally.
func (w *ingest) request(version int64) client.ReleaseRequest {
	return client.ReleaseRequest{Hierarchy: w.hier, Epsilon: epsilon, K: housingK, Seed: w.seed, Version: version}
}

func (w *ingest) setup(ctx context.Context, s *stack) error {
	h, err := s.c.UploadHierarchy(ctx, rootRegion, w.initial)
	if err != nil {
		return fmt.Errorf("uploading the hierarchy: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hier, w.headFP, w.applied = h.ID, h.Fingerprint, 0
	w.head, w.ids, w.versions, w.order = "", nil, make(map[string]int64), nil
	for b := 0; b < historyBatches; b++ {
		evs := make([]client.Event, historyBatch)
		for i := range evs {
			evs[i] = w.event(w.applied + i)
		}
		res, err := s.c.AppendEvents(ctx, w.hier, evs, w.headFP)
		if err != nil {
			return fmt.Errorf("pre-seeding the history: %w", err)
		}
		w.applied += len(evs)
		w.headFP = res.Head.Fingerprint
		rel, err := s.release(ctx, w.request(res.Head.Version))
		if err != nil {
			return fmt.Errorf("releasing the pre-seeded history: %w", err)
		}
		w.head = rel.Release
		w.ids = append(w.ids, rel.Release)
	}
	return nil
}

func (w *ingest) load(d *issuer, start time.Time, dur time.Duration) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		loadgen.Open(start, dur, writerRate, 1, loadgen.NewGenerator(w.seed, 0, appendOnly),
			func(_ loadgen.Op, due time.Time) { w.write(d, due) }, d.dropped)
	}()
	go func() {
		defer wg.Done()
		loadgen.Open(start, dur, readerRate, readerBound, loadgen.NewGenerator(w.seed, 1, queryOnly),
			func(op loadgen.Op, due time.Time) { w.read(d, op, due) }, d.dropped)
	}()
	wg.Wait()
}

// write runs one writer cycle: append the next delta under If-Match,
// then release the version it created. The release is due when the
// append returns.
func (w *ingest) write(d *issuer, due time.Time) {
	w.mu.Lock()
	i, fp := w.applied, w.headFP
	w.mu.Unlock()
	var res client.AppendResult
	err := d.open(loadgen.Append, due, func(ctx context.Context) error {
		var err error
		res, err = d.s.c.AppendEvents(ctx, w.hier, []client.Event{w.event(i)}, fp)
		return err
	})
	if err != nil {
		return
	}
	w.mu.Lock()
	w.applied, w.headFP = i+1, res.Head.Fingerprint
	w.mu.Unlock()
	var rel client.Release
	err = d.open(loadgen.Release, time.Now(), func(ctx context.Context) error {
		var err error
		rel, err = d.s.release(ctx, w.request(res.Head.Version))
		return err
	})
	if err != nil {
		return
	}
	w.mu.Lock()
	w.head = rel.Release
	w.ids = append(w.ids, rel.Release)
	w.versions[rel.Release] = res.Head.Version
	w.order = append(w.order, rel.Release)
	w.mu.Unlock()
}

// read queries the newest release or, half the time, any release so
// far: the older ones have left the LRU and are read from the store.
func (w *ingest) read(d *issuer, op loadgen.Op, due time.Time) {
	p := op.Params()
	w.mu.Lock()
	id := w.head
	if p.Intn(2) == 1 {
		id = w.ids[p.Intn(len(w.ids))]
	}
	w.mu.Unlock()
	node := w.nodes[p.Intn(len(w.nodes))]
	_ = d.open(loadgen.Query, due, func(ctx context.Context) error {
		_, err := d.s.c.Query(ctx, id, node, queryParams)
		return err
	})
}

func (w *ingest) check(ctx context.Context, s *stack) []error {
	w.mu.Lock()
	order := append([]string(nil), w.order...)
	w.mu.Unlock()
	var errs []error
	if len(order) == 0 {
		errs = append(errs, errors.New("the writer released nothing"))
	}
	for _, id := range spread(order, 3) {
		if err := w.checkVersion(ctx, s, id, w.versions[id]); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.checkEpsilon(); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// checkVersion verifies that a release the engine computed
// incrementally is bit-identical to a full release of that version's
// tree run locally with the same options.
func (w *ingest) checkVersion(ctx context.Context, s *stack, id string, version int64) error {
	groups := append([]hcoc.Group(nil), w.initial...)
	for i := 0; i < int(version)-1; i++ {
		groups = append(groups, w.delta(i))
	}
	tree, err := hcoc.BuildHierarchy(rootRegion, groups)
	if err != nil {
		return fmt.Errorf("version %d: %w", version, err)
	}
	local, err := hcoc.ReleaseSparse(tree, hcoc.Options{Epsilon: epsilon, K: housingK, Seed: w.seed})
	if err != nil {
		return fmt.Errorf("version %d: %w", version, err)
	}
	var want bytes.Buffer
	if err := hcoc.WriteReleaseSparse(&want, local, epsilon); err != nil {
		return fmt.Errorf("version %d: %w", version, err)
	}
	got, err := s.c.DownloadReleaseBytes(ctx, id, "")
	if err != nil {
		return fmt.Errorf("release %s: %w", id, err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		return fmt.Errorf("release %s of version %d differs from a full release of that version", id, version)
	}
	rel, _, err := hcoc.ReadReleaseSparse(bytes.NewReader(got))
	if err == nil {
		err = hcoc.CheckSparse(tree, rel)
	}
	if err != nil {
		return fmt.Errorf("release %s: %w", id, err)
	}
	return nil
}
