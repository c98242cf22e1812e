package main

import (
	"fmt"
	"math"
	"time"

	"hcoc"
	"hcoc/internal/estimator"
	"hcoc/internal/isotonic"
	"hcoc/internal/noise"
	"hcoc/perfbench/loadgen"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unitMetric names a metric, its unit and which way is better, as
// BENCHMARK.json lists it.
type unitMetric struct{ name, unit, better string }

func lower(name, unit string) unitMetric  { return unitMetric{name, unit, "lower"} }
func higher(name, unit string) unitMetric { return unitMetric{name, unit, "higher"} }

// endToEndMetrics lists what a --trace 0 run prints.
var endToEndMetrics = []unitMetric{
	lower("setup_s", "s"),
	higher("ops_per_s", "ops/s"),
	lower("peak_rss_mb", "MB"),
	lower("latency_p50_ms", "ms"),
	lower("release_p50_ms", "ms"),
}

// serveRoutes are the handler routes with a per-layer latency.
var serveRoutes = []string{"release", "query", "batch", "download", "events"}

// perLayerMetrics lists what a --trace 1 run prints.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []unitMetric {
	ms := []unitMetric{
		lower("client.attempts_per_op", "1/op"),
		lower("client.wire_kb_per_op", "KB"),
		lower("client.overhead_ms_p50", "ms"),
		lower("gateway.self_ms_p50", "ms"),
		lower("gateway.backend_calls_per_op", "1/op"),
		lower("gateway.fetch_kb_per_op", "KB"),
	}
	for _, r := range serveRoutes {
		ms = append(ms, lower("serve."+r+".p50_ms", "ms"))
	}
	ms = append(ms,
		lower("serve.self_ms_per_op", "ms"),
		higher("engine.cache_hit_ratio", "ratio"),
		higher("engine.dedup_ratio", "ratio"),
		higher("engine.store_hit_ratio", "ratio"),
		lower("engine.compute_ms_p50", "ms"),
		lower("engine.compute_ms_p90", "ms"),
		lower("engine.compute_busy_share", "ratio"),
		higher("engine.incremental_ratio", "ratio"),
		lower("engine.nodes_estimated_ratio", "ratio"),
		lower("engine.cache_mb", "MB"),
		lower("engine.state_mb", "MB"),
		lower("sched.wait_ms_per_grant", "ms"),
		lower("sched.rejected", "count"),
		lower("consistency.cells_per_release", "count"),
		lower("consistency.ns_per_cell", "ns"),
		lower("estimator.ms_per_node", "ms"),
		lower("isotonic.ms_per_fit", "ms"),
		lower("estimator.share_of_compute", "ratio"),
	)
	for _, op := range blobOpNames {
		ms = append(ms, lower("store."+op+".count_per_op", "1/op"), lower("store."+op+".ms_per_op", "ms"))
	}
	ms = append(ms,
		lower("store.kb_written_per_op", "KB"),
		lower("store.mb_held", "MB"),
		lower("s3stub.requests_per_op", "1/op"),
		lower("s3stub.ms_per_request", "ms"),
		lower("s3stub.gets_per_op", "1/op"),
		lower("eventlog.self_ms_p50", "ms"),
		higher("eventlog.replay_chunks_per_s", "1/s"),
		lower("loadgen.late_ms_tail", "ms"),
		higher("loadgen.late_tail_pct", "%"),
		lower("loadgen.error_rate", "ratio"),
	)
	for _, c := range loadgen.Classes {
		p := "loadgen." + string(c)
		ms = append(ms, higher(p+".samples", "count"), lower(p+".p50_ms", "ms"), lower(p+".tail_ms", "ms"), higher(p+".tail_pct", "%"))
	}
	return append(ms,
		lower("trace.residual_share", "ratio"),
		lower("trace.parallel_share", "ratio"),
		lower("trace.overhead_p50_share", "ratio"),
		lower("trace.overhead_ops_share", "ratio"),
		higher("trace.spans", "count"),
	)
}

// collect renders vals in the units of list; a metric vals lacks reads
// 0, and so does a value JSON cannot carry.
func collect(list []unitMetric, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// endToEnd computes the --trace 0 metrics. A named percentile the run's
// samples do not support fails the run.
func endToEnd(d loadgen.Digest, setups []float64, rssMB float64) (map[string]metric, error) {
	vals := map[string]float64{
		"setup_s":     loadgen.Median(setups),
		"ops_per_s":   d.Throughput(),
		"peak_rss_mb": rssMB,
	}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"latency_p50_ms", d.All, 0.5},
		{"release_p50_ms", d.ByClass[loadgen.Release], 0.5},
	} {
		v, err := loadgen.Percentile(p.xs, p.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		vals[p.name] = v
	}
	return collect(endToEndMetrics, vals), nil
}

// kernelTimes is the traced run's timing of the release kernels.
type kernelTimes struct{ total, perNode, fit time.Duration }

// timeKernels times, outside the load phase, estimator.EstimateRuns on
// every node of tree, and isotonic.FitL1InPlace on one K-cell noisy
// cumulative histogram (the root's, as the Hc estimator builds it), at
// the workload's K and per-level epsilon. The fit is the median of 5.
func timeKernels(tree *hcoc.Tree, k int, seed int64) (kernelTimes, error) {
	epsLevel := epsilon / float64(tree.Depth())
	nodes := tree.Nodes()
	start := time.Now()
	for _, n := range nodes {
		if _, err := estimator.EstimateRuns(estimator.MethodHc, n.Hist, estimator.Params{Epsilon: epsLevel, K: k}, noise.New(seed)); err != nil {
			return kernelTimes{}, fmt.Errorf("estimating %s: %w", n.Path, err)
		}
	}
	kt := kernelTimes{total: time.Since(start)}
	kt.perNode = kt.total / time.Duration(len(nodes))
	gen := noise.New(seed)
	noisy := make([]float64, k)
	var cum int64
	for i := range noisy {
		if i < len(tree.Root.Hist) {
			cum += tree.Root.Hist[i]
		}
		noisy[i] = float64(cum + gen.DoubleGeometric(1/epsLevel))
	}
	fits := make([]float64, 5)
	ys := make([]float64, k)
	for i := range fits {
		copy(ys, noisy)
		t := time.Now()
		isotonic.FitL1InPlace(ys)
		fits[i] = float64(time.Since(t))
	}
	kt.fit = time.Duration(loadgen.Median(fits))
	return kt, nil
}

// layerRun is what a traced run measured.
type layerRun struct {
	base    loadgen.Digest // the untraced pass
	traced  phase          // the traced pass
	slots   int            // compute slots across the stack's engines
	k       int            // the workload's public bound
	expect  []string       // layers whose self time must be positive
	kernels kernelTimes
	heldMB  float64
	replayS float64 // one cold replay, in seconds
	chunks  int64   // event chunks the replay read
}

// sub is a counter's growth over a phase.
func sub(after, before uint64) float64 {
	if after < before {
		return 0
	}
	return float64(after - before)
}

func nsToMS(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / 1e6
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// eventlogSelf returns, per events handler span, its duration minus
// the event-log blob writes inside it, in ms: delta apply, tree rebuild
// and fingerprint. Appends come from one writer, so they never overlap.
func eventlogSelf(spans []loadgen.Span, writes [][2]int64) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Layer != loadgen.LayerServe || sp.Name != "events" {
			continue
		}
		var inside []loadgen.Span
		for _, w := range writes {
			if w[0] >= sp.Start && w[1] <= sp.End {
				inside = append(inside, loadgen.Span{Start: w[0], End: w[1]})
			}
		}
		out = append(out, float64(loadgen.Self(sp, inside))/1e6)
	}
	return out
}

// residualLimit is the largest attribution residual, as a share of the
// client-observed busy time, that a traced run accepts.
const residualLimit = 0.1

// perLayer computes the --trace 1 metrics, with a note for every
// percentile its samples could not support, and the attribution check's
// failures, which fail the run.
func perLayer(r layerRun) (map[string]metric, []string, []error) {
	vals := make(map[string]float64)
	var notes []string
	pct := func(name string, xs []float64, q float64) {
		if len(xs) == 0 {
			return // the layer did no work on this workload
		}
		v, err := loadgen.Percentile(loadgen.Sorted(xs), q)
		if err != nil {
			notes = append(notes, fmt.Sprintf("%s reads 0: %v", name, err))
			return
		}
		vals[name] = v
	}
	d, b, a := r.traced.digest, r.traced.before, r.traced.after
	tb, ta := b.trace, a.trace
	ops := float64(max(d.Attempted, 1))
	var blobNS int64
	for i := range ta.blobNS {
		blobNS += ta.blobNS[i] - tb.blobNS[i]
	}
	compute := a.releaseTotal - b.releaseTotal
	attr := loadgen.Attribute(r.traced.spans, loadgen.Unlinked{Blob: blobNS, Stub: ta.stubNS - tb.stubNS, Compute: int64(compute)})

	vals["client.attempts_per_op"] = float64(ta.attempts-tb.attempts) / ops
	vals["client.wire_kb_per_op"] = float64(ta.wire-tb.wire) / 1e3 / ops
	pct("client.overhead_ms_p50", nsToMS(attr.ClientSelf), 0.5)
	pct("gateway.self_ms_p50", nsToMS(attr.GatewaySelf), 0.5)
	vals["gateway.backend_calls_per_op"] = float64(ta.gwAttempts-tb.gwAttempts) / ops
	vals["gateway.fetch_kb_per_op"] = float64(ta.gwFetched-tb.gwFetched) / 1e3 / ops

	byRoute := make(map[string][]float64)
	for _, sp := range r.traced.spans {
		if sp.Layer == loadgen.LayerServe {
			byRoute[sp.Name] = append(byRoute[sp.Name], float64(sp.Dur())/1e6)
		}
	}
	for _, route := range serveRoutes {
		pct("serve."+route+".p50_ms", byRoute[route], 0.5)
	}
	vals["serve.self_ms_per_op"] = float64(attr.Self["serve"]) / 1e6 / ops

	if req := sub(a.requests, b.requests); req > 0 {
		vals["engine.cache_hit_ratio"] = sub(a.cacheHits, b.cacheHits) / req
		vals["engine.dedup_ratio"] = sub(a.deduped, b.deduped) / req
		vals["engine.store_hit_ratio"] = sub(a.storeHits, b.storeHits) / req
	}
	var computeMS []float64
	for _, rel := range r.traced.releases {
		if computed(rel) {
			computeMS = append(computeMS, rel.DurationMS)
		}
	}
	pct("engine.compute_ms_p50", computeMS, 0.5)
	pct("engine.compute_ms_p90", computeMS, 0.9)
	if secs := float64(d.Last-d.First) / 1e9; secs > 0 && r.slots > 0 {
		vals["engine.compute_busy_share"] = compute.Seconds() / (secs * float64(r.slots))
	}
	estimated := sub(a.nodesEstimated, b.nodesEstimated)
	if n := sub(a.releases, b.releases); n > 0 {
		vals["engine.incremental_ratio"] = sub(a.incremental, b.incremental) / n
		vals["consistency.cells_per_release"] = estimated * float64(r.k) / n
	}
	if total := sub(a.nodesTotal, b.nodesTotal); total > 0 {
		vals["engine.nodes_estimated_ratio"] = estimated / total
	}
	if estimated > 0 {
		vals["consistency.ns_per_cell"] = float64(compute.Nanoseconds()) / (estimated * float64(r.k))
	}
	vals["engine.cache_mb"] = float64(a.cacheBytes) / 1e6
	vals["engine.state_mb"] = float64(a.stateBytes) / 1e6
	if g := sub(a.granted, b.granted); g > 0 {
		vals["sched.wait_ms_per_grant"] = msOf(a.queueWait-b.queueWait) / g
	}
	vals["sched.rejected"] = sub(a.rejected, b.rejected)

	vals["estimator.ms_per_node"] = msOf(r.kernels.perNode)
	vals["isotonic.ms_per_fit"] = msOf(r.kernels.fit)
	if p50 := vals["engine.compute_ms_p50"]; p50 > 0 {
		vals["estimator.share_of_compute"] = msOf(r.kernels.total) / p50
	}

	for i, op := range blobOpNames {
		vals["store."+op+".count_per_op"] = float64(ta.blobN[i]-tb.blobN[i]) / ops
		vals["store."+op+".ms_per_op"] = float64(ta.blobNS[i]-tb.blobNS[i]) / 1e6 / ops
	}
	vals["store.kb_written_per_op"] = float64(ta.written-tb.written) / 1e3 / ops
	vals["store.mb_held"] = r.heldMB
	if n := ta.stubN - tb.stubN; n > 0 {
		vals["s3stub.requests_per_op"] = float64(n) / ops
		vals["s3stub.ms_per_request"] = float64(ta.stubNS-tb.stubNS) / 1e6 / float64(n)
	}
	vals["s3stub.gets_per_op"] = float64(a.stubGets-b.stubGets) / ops

	pct("eventlog.self_ms_p50", eventlogSelf(r.traced.spans, r.traced.eventWrites), 0.5)
	if r.replayS > 0 {
		vals["eventlog.replay_chunks_per_s"] = float64(r.chunks) / r.replayS
	}

	if p, v, ok := loadgen.Tail(r.base.Late); ok {
		vals["loadgen.late_ms_tail"], vals["loadgen.late_tail_pct"] = v, 100*p
	}
	vals["loadgen.error_rate"] = r.base.ErrorRate()
	for _, c := range loadgen.Classes {
		xs, name := r.base.ByClass[c], "loadgen."+string(c)
		vals[name+".samples"] = float64(len(xs))
		if v, err := loadgen.Percentile(xs, 0.5); err == nil {
			vals[name+".p50_ms"] = v
		}
		if p, v, ok := loadgen.Tail(xs); ok {
			vals[name+".tail_ms"], vals[name+".tail_pct"] = v, 100*p
		}
	}

	vals["trace.residual_share"] = attr.Residual()
	if attr.Busy > 0 {
		vals["trace.parallel_share"] = float64(attr.Parallel) / float64(attr.Busy)
	}
	untraced, err1 := loadgen.Percentile(r.base.All, 0.5)
	traced, err2 := loadgen.Percentile(d.All, 0.5)
	if err1 == nil && err2 == nil && untraced > 0 {
		vals["trace.overhead_p50_share"] = traced/untraced - 1
	}
	if bt := r.base.Throughput(); bt > 0 {
		vals["trace.overhead_ops_share"] = 1 - d.Throughput()/bt
	}
	vals["trace.spans"] = float64(len(r.traced.spans))
	return collect(perLayerMetrics, vals), notes, attr.Check(r.expect, residualLimit)
}
