package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// listed is one metric as BENCHMARK.json lists it.
type listed struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and what the command
// prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []listed                `json:"end_to_end"`
		PerLayer  []listed                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Errorf("BENCHMARK.json lists workloads %v, the command runs %v", names, got)
	}
	for _, c := range []struct {
		kind    string
		listed  []listed
		printed []unitMetric
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(c.listed) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", c.kind, len(c.listed), len(c.printed))
			continue
		}
		for i, m := range c.printed {
			if l := c.listed[i]; l.Name != m.name || l.Unit != m.unit || l.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json lists %+v, the command prints %+v", c.kind, i, l, m)
			}
		}
	}
}

// raceEnabled reports whether the tests run under the race detector.
var raceEnabled bool

// layerOutputs names, per workload, per-layer metrics that only a layer
// the workload loads can make positive, so a broken link or a missing
// counter fails the run instead of reading 0, and the seconds of load
// that give their percentiles enough samples.
var layerOutputs = map[string]struct {
	seconds int
	metrics []string
}{
	"fresh-release": {3, []string{"engine.compute_ms_p50", "consistency.ns_per_cell", "estimator.share_of_compute", "serve.release.p50_ms", "store.put.count_per_op"}},
	"read-mix":      {1, []string{"client.overhead_ms_p50", "serve.query.p50_ms", "serve.batch.p50_ms", "serve.download.p50_ms", "engine.cache_hit_ratio"}},
	"ingest":        {7, []string{"eventlog.self_ms_p50", "serve.events.p50_ms", "engine.incremental_ratio", "s3stub.requests_per_op", "eventlog.replay_chunks_per_s"}},
	"cluster-read":  {1, []string{"gateway.self_ms_p50", "gateway.backend_calls_per_op", "gateway.fetch_kb_per_op", "s3stub.gets_per_op"}},
}

// TestPlainRunPrintsEveryEndToEndMetric runs a --trace 0 run: every
// end-to-end metric must be measured, none may read 0.
func TestPlainRunPrintsEveryEndToEndMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	res, err := run(context.Background(), config{workload: "read-mix", seed: 1, seconds: 1, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(endToEndMetrics) {
		t.Fatalf("correct %v, %d of %d failed, %d metrics", res.Correct, res.Failed, res.Attempted, len(res.Metrics))
	}
	for _, m := range endToEndMetrics {
		if v := res.Metrics[m.name]; v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("%s reads %g %s, want a positive value in %s", m.name, v.Value, v.Unit, m.unit)
		}
	}
}

// TestWorkloadsRun runs every workload through both passes of a traced
// run.
func TestWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			want, ok := layerOutputs[name]
			if !ok {
				t.Fatalf("no per-layer outputs named for %s", name)
			}
			res, err := run(context.Background(), config{workload: name, seed: 1, seconds: want.seconds, trace: true, workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("correct %v, %d attempted", res.Correct, res.Attempted)
			}
			if raceEnabled {
				// The race detector slows the stack below the open loop's
				// schedule and the sample counts the percentiles need; the
				// output and attribution checks above still hold.
				return
			}
			if res.Failed != 0 {
				t.Fatalf("%d of %d failed", res.Failed, res.Attempted)
			}
			for _, m := range want.metrics {
				if v := res.Metrics[m].Value; v <= 0 {
					t.Errorf("%s reads %g, want it positive", m, v)
				}
			}
		})
	}
}
