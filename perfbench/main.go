package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hcoc/client"
	"hcoc/perfbench/loadgen"
)

const (
	// setupRounds is how many times a --trace 0 run builds its stack and
	// set-up state: setup_s is their median, and the last one serves the
	// load phase.
	setupRounds = 5
	// rssEvery is how often the load phase samples the resident set, and
	// rssWindow how many samples make one window of peak_rss_mb.
	rssEvery  = 10 * time.Millisecond
	rssWindow = 100
	// flushPolicy is how the stores make writes durable, recorded with
	// every run.
	flushPolicy = "disk: fsync of every object (temp file, rename, directory) and of every manifest append; s3: objects in the in-process stub's memory"
)

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what one invocation measures.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input and operation sequence derives from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured load phase, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 makes an untraced and a traced pass and prints the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for disk stores and span files")
	flag.Parse()
	if (trace != 0 && trace != 1) || cfg.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1 and --seconds a positive count")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload.
func run(ctx context.Context, cfg config) (result, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q; want one of %s", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	w, err := mk(cfg.seed)
	if err != nil {
		return result{}, fmt.Errorf("generating the inputs: %w", err)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	printEnv(cfg, dir)
	if cfg.trace {
		return runTraced(ctx, cfg, w, dir)
	}
	return runPlain(ctx, cfg, w, dir)
}

// build creates a stack and runs the workload's set-up on it.
func build(ctx context.Context, w workload, dir string, traced bool) (*stack, error) {
	s, err := newStack(w.spec(), dir, traced)
	if err != nil {
		return nil, fmt.Errorf("building the stack: %w", err)
	}
	if err := w.setup(ctx, s); err != nil {
		s.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return s, nil
}

// runPlain is a --trace 0 run: setupRounds set-ups, one untraced load
// phase and the output checks.
func runPlain(ctx context.Context, cfg config, w workload, dir string) (result, error) {
	var setups []float64
	var s *stack
	for i := 0; i < setupRounds; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = build(ctx, w, filepath.Join(dir, fmt.Sprint("stack", i)), false); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()
	watch := watchRSS()
	ph := runLoad(w, s, cfg.seconds)
	rss, err := watch.peakMB()
	if err != nil {
		return result{}, err
	}
	checks := w.check(ctx, s)
	m, err := endToEnd(ph.digest, setups, rss)
	if err != nil {
		return result{}, err
	}
	return finish(ph.digest, checks, m), nil
}

// runTraced is a --trace 1 run: an untraced pass for the baseline, then
// a traced pass on a fresh stack that yields the per-layer metrics.
func runTraced(ctx context.Context, cfg config, w workload, dir string) (result, error) {
	s, err := build(ctx, w, filepath.Join(dir, "untraced"), false)
	if err != nil {
		return result{}, err
	}
	base := runLoad(w, s, cfg.seconds)
	s.close()
	runtime.GC()

	if s, err = build(ctx, w, filepath.Join(dir, "traced"), true); err != nil {
		return result{}, err
	}
	defer s.close()
	ph := runLoad(w, s, cfg.seconds)
	r := layerRun{base: base.digest, traced: ph, slots: computeSlots * len(s.nodes), expect: w.layers()}
	tree, k := w.kernel()
	r.k = k
	if r.kernels, err = timeKernels(tree, k, cfg.seed); err != nil {
		return result{}, err
	}
	checks := w.check(ctx, s)
	if r.heldMB, err = s.heldMB(); err != nil {
		return result{}, err
	}
	if r.replayS, r.chunks, err = s.replay(); err != nil {
		return result{}, err
	}
	path := filepath.Join(cfg.workdir, "spans-"+cfg.workload+".jsonl")
	if err := writeSpans(path, ph.spans); err != nil {
		return result{}, err
	}
	fmt.Printf("perfbench spans: %d written to %s\n", len(ph.spans), path)
	m, notes, fails := perLayer(r)
	for _, n := range notes {
		fmt.Println("perfbench note:", n)
	}
	fmt.Printf("perfbench attribution: residual %.4f of the client-observed busy time, tracing overhead %.4f on the median latency and %.4f on throughput\n",
		m["trace.residual_share"].Value, m["trace.overhead_p50_share"].Value, m["trace.overhead_ops_share"].Value)
	return finish(ph.digest, append(checks, fails...), m), nil
}

// phase is what one load phase measured.
type phase struct {
	digest        loadgen.Digest
	before, after snapshot
	spans         []loadgen.Span
	eventWrites   [][2]int64
	releases      []client.Release
}

// runLoad runs the workload's load phase on s.
func runLoad(w workload, s *stack, seconds int) phase {
	d := &issuer{s: s, rec: &loadgen.Recorder{}}
	if s.tr != nil {
		s.tr.reset()
	}
	s.markLoad()
	ph := phase{before: s.snapshot()}
	w.load(d, time.Now(), time.Duration(seconds)*time.Second)
	ph.after = s.snapshot()
	ph.digest = loadgen.Summarize(d.rec.Samples())
	ph.releases = s.answered(true)
	if s.tr != nil {
		ph.spans = s.tr.spans.List()
		ph.eventWrites = s.tr.eventWrites()
	}
	return ph
}

// finish assembles the result line. Every failed output check is
// printed and counts as a failed operation.
func finish(d loadgen.Digest, checks []error, m map[string]metric) result {
	for _, err := range checks {
		fmt.Println("perfbench check failed:", err)
	}
	return result{Correct: len(checks) == 0, Attempted: d.Attempted, Failed: d.Failed + len(checks), Metrics: m}
}

// rssWatch samples the process's resident set every rssEvery while a
// load phase runs.
type rssWatch struct {
	stop, done chan struct{}
	samples    []float64 // MB
	err        error
}

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				w.err = err
				return
			}
			w.samples = append(w.samples, mb)
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// peakMB stops the sampling and returns the median, over the windows of
// rssWindow samples, of each window's highest resident set: a peak that
// one badly timed garbage collection cannot set alone.
func (w *rssWatch) peakMB() (float64, error) {
	close(w.stop)
	<-w.done
	if w.err != nil {
		return 0, fmt.Errorf("sampling the resident set: %w", w.err)
	}
	return loadgen.Median(loadgen.WindowPeaks(w.samples, rssWindow)), nil
}

// residentMB reads the process's resident set, in MB.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6, nil
}

// writeSpans writes the traced phase's spans as JSON lines.
func writeSpans(path string, spans []loadgen.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := loadgen.WriteJSON(w, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// envRecord is the environment a run records, so that two sets of runs
// can be checked like for like.
type envRecord struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	StoreDir    string `json:"store_dir"`
	FlushPolicy string `json:"flush_policy"`
}

// printEnv prints the environment line.
func printEnv(cfg config, dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown (not a git checkout)"
	}
	// A struct of strings, numbers and booleans always encodes.
	line, _ := json.Marshal(envRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, StoreDir: abs, FlushPolicy: flushPolicy,
	})
	fmt.Printf("perfbench env %s\n", line)
}
