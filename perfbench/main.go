// Command perfbench is the repository benchmark. One invocation runs one
// workload (see workloads/*.json) for one run seed and prints, as its
// last line of standard output, a JSON object with the correctness
// verdict, the operations attempted and failed, and the metrics:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// The lines before it render the same numbers for people, including one
// layer table per workload phase in traced runs.
//
// Run it through run.sh, which builds this command and cmd/tdc from the
// checkout first:
//
//	bash perfbench/run.sh --workload serve-unique --seed 1 --seconds 30 --trace 0
//
// Any failed output check makes the run exit 1 after printing its
// result with "correct": false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json declares the
// same names; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct{ Name, Unit string }

var endToEndMetrics = []metricDef{
	{"train_s", "s"},
	{"train_cpu_s", "s"},
	{"docs_per_s", "docs/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"server_cpu_us_per_doc", "us/doc"},
	{"macro_f1", "ratio"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"reuters.ingest_s", "s"},
	{"featsel.select_s", "s"},
	{"hsom.train_s", "s"},
	{"hsom.char_epochs_s", "s"},
	{"hsom.word_epochs_s", "s"},
	{"hsom.encode_train_s", "s"},
	{"lgp.evolve_s", "s"},
	{"lgp.tournaments", "count"},
	{"lgp.tournament_us", "us"},
	{"lgp.threshold_s", "s"},
	{"core.category_phase_s", "s"},
	{"train.rows_ratio", "ratio"},
	{"train.trace_overhead_ratio", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"client.ttfb_mean_ms", "ms"},
	{"client.conn_reused_ratio", "ratio"},
	{"client.latency_p99_ms", "ms"},
	{"transport.gap_mean_ms", "ms"},
	{"serve.handler_mean_ms", "ms"},
	{"serve.decode_mean_ms", "ms"},
	{"serve.queue_mean_ms", "ms"},
	{"serve.classify_mean_ms", "ms"},
	{"serve.write_mean_ms", "ms"},
	{"serve.rows_ratio", "ratio"},
	{"serve.trace_overhead_ratio", "ratio"},
	{"core.encode_cache_hit_ratio", "ratio"},
	{"hsom.wordvec_cache_hit_ratio", "ratio"},
	{"core.machine_pool_hit_ratio", "ratio"},
	{"textproc.process_us_per_doc", "us/doc"},
	{"hsom.encode_us_per_doc", "us/doc"},
	{"lgp.run_us_per_doc", "us/doc"},
	{"core.classify_doc_us", "us/doc"},
	{"server.alloc_kb_per_doc", "KB/doc"},
	{"server.gc_cycles", "count"},
	{"core.load_s", "s"},
	{"host.steal_pct", "%"},
}

// ledger counts the operations a run attempts and the ones that fail:
// a non-200 reply, a transport error, a parity mismatch, a training
// error or a failed output check.
type ledger struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

// check records one operation, failed when err is non-nil.
func (l *ledger) check(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < 20 {
			l.errs = append(l.errs, err.Error())
		}
	}
}

// gate records an output check that compares want and got.
func (l *ledger) gate(what string, pass bool) {
	if pass {
		l.check(nil)
		return
	}
	l.check(fmt.Errorf("output check failed: %s", what))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runner is the state of one benchmark run.
type runner struct {
	spec   workloadSpec
	seed   int64
	window time.Duration
	traced bool
	out    io.Writer
	dir    string // scratch directory, removed when the run ends
	tdc    string // the tdc binary built from the tree under test

	led     ledger
	tr      *tracer // nil unless traced
	metrics map[string]float64
	tables  []*layerTable
	servers []*server // every server started, stopped when the run ends
}

func (r *runner) set(name string, v float64) { r.metrics[name] = v }

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (a workloads/<name>.json spec)")
	seed := fs.Int64("seed", 1, "run seed: varies SGML noise and request documents")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	tdc := fs.String("tdc", "", "path of the tdc binary built from the tree under test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	specs, err := loadSpecs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	spec, ok := specs[*workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(specNames(specs), ", "))
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	case *tdc == "":
		fmt.Fprintln(os.Stderr, "perfbench: --tdc is required (run.sh sets it)")
		return 2
	}
	if _, err := os.Stat(*tdc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	r := &runner{
		spec: spec, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, out: out, dir: dir, tdc: *tdc,
		metrics: make(map[string]float64),
	}
	if r.traced {
		r.tr = newTracer()
	}
	res, err := r.execute()
	r.stopServers()
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs the workload and assembles its result. An error means
// the run could not measure at all; failed checks land in the ledger.
func (r *runner) execute() (*result, error) {
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.out, "perfbench %s seed=%d seconds=%g trace=%v\n", r.spec.Name, r.seed, r.window.Seconds(), r.traced)
	fmt.Fprintf(r.out, "host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(r.out, "workload: %s\n", r.spec.Why)

	if err := r.runWorkload(); err != nil {
		return nil, err
	}

	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	steal := stealShare(host0, host1)
	fmt.Fprintf(r.out, "host steal over the run: %.1f%%\n", 100*steal)
	defs := endToEndMetrics
	if r.traced {
		r.set("host.steal_pct", 100*steal)
		defs = perLayerMetrics
		r.reportTables()
		if err := r.tr.writeJSONL(filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", r.spec.Name, r.seed))); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	res := &result{Metrics: make(map[string]metricValue, len(defs))}
	fmt.Fprintln(r.out)
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(r.out, "%-30s %14.6g %s\n", d.Name, v, d.Unit)
	}
	r.led.mu.Lock()
	defer r.led.mu.Unlock()
	res.Attempted, res.Failed = r.led.attempted, r.led.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(r.out, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, e := range r.led.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	return res, nil
}

// reportTables renders each layer table and checks that its rows sum
// to its total within the table's tolerance.
func (r *runner) reportTables() {
	for _, t := range r.tables {
		t.render(r.out)
		r.led.gate(t.Title+": rows sum to the total within the tolerance", t.closes())
	}
}

// runWorkload ingests and trains, then serves the model, except in an
// untraced train-quick run, whose training calls already classified the
// test split in process.
func (r *runner) runWorkload() error {
	in, err := r.prepareTraining()
	if err != nil {
		return err
	}
	tm, err := r.train(in)
	if err != nil {
		return err
	}
	if r.spec.Data.Pool == "test-split" && !r.traced {
		return nil
	}
	return r.serveModel(in, tm)
}

// stopServers stops every server the run started and waits for each.
func (r *runner) stopServers() {
	for _, s := range r.servers {
		if err := s.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping server:", err)
		}
	}
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
