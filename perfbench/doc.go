// Command perfbench is the repository benchmark. A run builds the
// serving stack in this process from the public constructors
// (store.OpenBackend over the disk store or over store.NewS3 and an
// in-process s3stub, engine.New, serve.NewServer, gateway.New), drives
// it through the client SDK from a seeded generator in the same
// process, checks what the stack served, and prints every metric by
// name with its unit. BENCHMARK.json at the repository root names the
// workloads and metrics; run.sh builds this command from source and runs
// it from the repository root:
//
//	bash perfbench/run.sh --workload read-mix --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured with tracing off. With --trace 1 the run
// makes an untraced pass and then a traced pass, each on a fresh stack,
// and prints the per-layer metrics; the gap between the passes is the
// tracing overhead. Earlier lines record the environment (nproc,
// GOMAXPROCS, Go version, commit when the checkout is a git repository,
// and the absolute directory of the disk store with its flush policy)
// and every output check that failed.
//
// The seed is the only input: it derives the synthetic hierarchies, each
// client's operation sequence and every release seed, so equal seeds
// give equal inputs. Every workload uses at most two client connections
// (the benchmark was sized on a 2-core machine), every release spends
// epsilon 1, and the load phase lasts --seconds.
//
// # Workloads
//
// fresh-release: one serve node on the disk store; closed loop, 1
// client; every request is POST /v1/release with a seed never used
// before. The hierarchy is census-shaped: the RaceHawaiian generator at
// scale 1 cut to its first 4 states (about 9k groups, 5 nodes, few
// distinct sizes), released at hcoc.DefaultK, which is what a caller
// gets by omitting k. Every request misses the cache, dedup and store
// and runs all of Algorithm 1, so the kernels and the release pipeline
// do nearly all the work and the query, event-log and gateway code do
// none. Set-up uploads the hierarchy and computes 2 releases. One
// client, not two: on the 2-core machine two concurrent computations
// slowed each other by about 45% and varied more from run to run, so a
// second client would measure their contention for the cores.
//
// read-mix: one serve node on the disk store; closed loop, 2 clients.
// The hierarchy is the 3-level west-coast housing generator at scale
// 0.05 (about 10k groups, about 100 nodes) with K 10000, above its
// largest group. Set-up warms 4 releases (two Hc seeds, an Hg release
// for compare, a third seed for series), a working set that fits the
// LRU. The clients send a fixed mix with weights query 8, batch 1,
// cross 1, download 1 and release 1: a node query, a 16-node batch, a
// 16-entry cross-release batch (emd, delta, series, compare), an
// artifact download, and a repeated warm release, which is a cache hit.
// The first four weights are the mix the repository documents for
// hcoc-load (release=1,query=8,batch=1,cross=1, in the README and the
// CI mixed-workload job). hcoc-load issues no downloads, so their
// weight is a choice, not a measured share: that of the rarest
// documented operation. HTTP, gzip and JSON handling, cache lookup,
// query and plan evaluation and the zero-copy download do the work; no
// noise is drawn, so a kernel change must show nothing here.
//
// ingest: one serve node on the S3 backend over an in-process s3stub,
// its release LRU bounded at 8. Set-up uploads the housing hierarchy and
// pre-seeds a history of 48 one-group deltas, releasing the head every 8
// (6 releases). An open loop then runs two fixed-rate streams: a writer
// at 4 cycles per second, each appending one delta under If-Match and
// then releasing the new version with unchanged epsilon, K and seed, so
// the engine recomputes incrementally; and a reader at 32 queries per
// second (at most 4 in flight), half on the newest release and half on
// any release so far, so some reads miss the LRU and go to the store.
// Event-log appends (each rebuilds and fingerprints the tree), manifest
// chunks, artifact encoding and the full manifest refresh a shared store
// runs on every release miss do most of the work; the kernels
// re-estimate only the changed paths. The schedule fixes the operation
// count, so history size and replay time compare across commits.
//
// The repository documents no ingest rate, so the schedule rests on
// these choices. The reader runs 8 queries per writer cycle, the
// query-to-release ratio of the documented hcoc-load mix. The writer's
// 4 cycles per second are a sizing guess: a cycle (an append of about
// 10 ms plus an incremental release of about 25 ms) takes about 35 ms
// on the 2-core machine, so the writer keeps about a seventh of one
// core busy and the open loop does not drop, and a 10-second run adds
// 40 versions, close to the 48 pre-seeded ones. The LRU bound of 8, an eighth of the engine's default
// 64, is below the about 46 releases a run makes, so the reader's
// uniform half mostly misses the LRU, as on a node with a long history.
//
// cluster-read: the read-mix traffic through an in-process gateway
// (shared store, replication 2, never started, so no background probe or
// repair traffic) in front of two serve nodes that mount one s3stub
// bucket. It is the only workload that crosses the gateway hop and the
// ring, and its downloads and cross-release fetches read artifacts from
// the shared store.
//
// # End-to-end metrics
//
// Measured with tracing off. Every workload reports every one:
//
//	setup_s         s      median of 5 set-ups: stack build, upload,
//	                       warm releases, pre-seeded history
//	ops_per_s       ops/s  completed operations per second of load
//	peak_rss_mb     MB     peak resident set of the process during the
//	                       load phase: sampled every 10 ms, the highest
//	                       sample of each second, median over the seconds
//	latency_p50_ms  ms     median latency of every completed operation,
//	                       timed from when it was due
//	release_p50_ms  ms     median POST /v1/release latency: fresh
//	                       computations on fresh-release, cache hits on
//	                       read-mix and cluster-read, incremental
//	                       computations on ingest
//
// Tail latencies and the cold replay time are per-layer metrics, not
// end-to-end ones: their run-to-run spread on the shared 2-core machine
// exceeds any usable bound. The tails are loadgen.<class>.tail_ms and
// replay is eventlog.replay_chunks_per_s.
//
// The result line carries the error rate as failed over attempted:
// failed counts errors, open-loop drops and failed output checks. A run
// whose samples do not put at least 10 beyond a named percentile fails.
// The output checks run after the load phase: sampled downloaded
// artifacts pass hcoc.CheckSparse against the tree they were released
// from; sampled served group counts equal the hierarchy's; on ingest
// three head releases are bit-identical to hcoc.ReleaseSparse run
// locally on that version's tree; and the engines' EpsilonSpentLocal
// equals epsilon times the releases that computed.
//
// How the metrics interact: on fresh-release, one client never queues
// for the 2 compute slots, so a kernel saving moves release_p50_ms by
// at most its share of engine.compute_ms_p50. On read-mix and
// cluster-read the closed loop ties latency to throughput, so a saving
// in serve self time moves latency_p50_ms and ops_per_s together. On
// ingest the refresh reads grow with history, so a refresh fix moves
// release_p50_ms and loadgen.query.tail_ms by more than its share at the
// start of the run.
//
// # Per-layer metrics
//
// Printed by --trace 1, every one on every workload: a layer a workload
// does not reach reads 0, and a percentile its samples cannot support
// reads 0 with a note. Per op means per attempted operation of the
// traced load phase. In parentheses, the end-to-end metric each should
// move and the workload where its layer does most of the work.
//
//	client.attempts_per_op         HTTP attempts per SDK call (failed, all)
//	client.wire_kb_per_op          bytes on the client connections (latency, read-mix)
//	client.overhead_ms_p50         SDK call time minus the handler span it caused
//	gateway.self_ms_p50            gateway time minus the serve spans it caused (cluster-read)
//	gateway.backend_calls_per_op   gateway attempts to backends (cluster-read)
//	gateway.fetch_kb_per_op        response bytes the gateway read from backends (cluster-read)
//	serve.<route>.p50_ms           handler time of release, query, batch, download, events
//	serve.self_ms_per_op           handler time minus blob time minus engine compute
//	engine.cache_hit_ratio, engine.dedup_ratio, engine.store_hit_ratio
//	                               release requests each tier answered (release_p50_ms)
//	engine.compute_ms_p50, engine.compute_ms_p90
//	                               duration_ms of releases that computed (fresh-release)
//	engine.compute_busy_share      compute time over wall time times slots (ops_per_s)
//	engine.incremental_ratio, engine.nodes_estimated_ratio
//	                               incremental computations, re-estimated nodes (ingest)
//	engine.cache_mb, engine.state_mb
//	                               LRU and retained-state cost at the end (peak_rss_mb)
//	sched.wait_ms_per_grant, sched.rejected
//	                               queue wait per compute grant, admission refusals
//	consistency.cells_per_release  nodes estimated times K per computation (fresh-release)
//	consistency.ns_per_cell        compute time per estimated cell (fresh-release)
//	estimator.ms_per_node          estimator.EstimateRuns on every node, timed after the load
//	isotonic.ms_per_fit            isotonic.FitL1InPlace on one K-cell input, median of 5
//	estimator.share_of_compute     estimator time for the tree over engine.compute_ms_p50
//	store.<op>.count_per_op, store.<op>.ms_per_op
//	                               BlobStore calls and their time per operation for put,
//	                               get, stat, list, append, manifest_read (ingest, cluster-read)
//	store.kb_written_per_op        bytes put and appended per operation (ingest)
//	store.mb_held                  bytes the blob store holds at the end of the run
//	s3stub.requests_per_op, s3stub.ms_per_request, s3stub.gets_per_op
//	                               stub handler requests and time, object GETs (ingest)
//	eventlog.self_ms_p50           events handler time minus its event-log blob writes (ingest)
//	eventlog.replay_chunks_per_s   event chunks a cold replay reads per second (ingest)
//	loadgen.late_ms_tail, loadgen.late_tail_pct
//	                               how late the open loop sent, at the highest supported percentile
//	loadgen.error_rate             failed over attempted in the untraced pass
//	loadgen.<class>.samples, .p50_ms, .tail_ms, .tail_pct
//	                               client latency per operation class in the untraced pass
//	trace.residual_share           client-observed time the layers' self times leave unexplained
//	trace.parallel_share           time one request's backend calls ran side by side
//	trace.overhead_p50_share       traced over untraced median latency, minus 1
//	trace.overhead_ops_share       1 minus traced over untraced throughput
//	trace.spans                    spans recorded in the traced load phase
//
// Spans carry a name, start, end, parent and operation id. The link from
// a client attempt to the handler it reaches travels in headers the
// benchmark's transport sets; the link from a gateway handler to its
// backend calls travels in the request context the gateway hands its
// SDK clients, whose transport the benchmark installs through
// gateway.Options.ClientOptions beside client.WithMaxRetries(1). Blob and
// stub calls cannot see the request they serve, so their time is summed
// per phase. A layer's self time is its span time minus the time its
// child spans cover, and serve's is its handler time minus the summed
// blob and engine compute time. Those differences make the self times
// sum to the client-observed busy time by construction once every
// handler span is linked, so the traced run checks what can fail
// instead, and counts each failure as a failed output check: no layer's
// self time may be negative (blob and compute time that no serve
// handler holds, or stub time beyond the blob calls), every layer the
// workload crosses must record time (client and serve everywhere,
// compute on fresh-release and ingest, blob everywhere, s3stub on the
// S3 workloads, gateway on cluster-read), and the residual, the share
// of the busy time the self times counted as at least zero fail to
// explain, must stay within a tenth. The run prints the residual and
// the tracing overhead. The traced pass wraps the store's files, so
// disk downloads copy instead of using sendfile: that is part of the
// tracing overhead.
// Spans are kept in memory and written to spans-<workload>.jsonl in the
// work directory when the run ends.
package main
