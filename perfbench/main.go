// Command perfbench is the repository's benchmark: four closed-loop
// workloads over the library Runner and the bo3serve HTTP service, each
// reporting the end-to-end metrics named in BENCHMARK.json and, in a
// separate traced run, per-layer metrics split at the public boundaries of
// each module (see README.md for the workloads and the layer predictions).
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload trials-kn --seed 1 --seconds 10 --trace 0
//
// Standard output ends with one JSON line:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// The lines before it are a human-readable table and the environment
// stamp. With --trace 1 the spans are also written to
// <build dir>/traces/<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's vocabulary and must match BENCHMARK.json (checked by
// TestMetricTablesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd is reported by untraced runs (--trace 0). failed_frac is printed
// in the table but carried in the JSON as attempted/failed: it is 0 on
// every correct run, so it cannot be a bounded metric.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"trials_per_s", "trials/s"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer is reported by traced runs (--trace 1). A layer the workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"core.init_s", "s"},
	{"core.init_frac", "ratio"},
	{"core.rounds_s", "s"},
	{"core.rounds_frac", "ratio"},
	{"core.tail_s", "s"},
	{"core.rounds", "count"},
	{"opinion.ns_per_vertex", "ns"},
	{"dynamics.vertex_updates", "count"},
	{"dynamics.ns_per_vertex_update", "ns"},
	{"dynamics.gather_bytes_computed", "B"},
	{"graph.build_s", "s"},
	{"graph.csr_bytes", "B"},
	{"repro.scaling_x", "x"},
	{"repro.residual_frac", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.queue_wait_s", "s"},
	{"serve.exec_s", "s"},
	{"serve.exec_s.sync", "s"},
	{"serve.exec_s.async", "s"},
	{"serve.exec_s.stubborn", "s"},
	{"serve.exec_s.plurality", "s"},
	{"serve.graph_s", "s"},
	{"serve.persist_s", "s"},
	{"serve.requests_per_job", "count"},
	{"serve.worker_util", "ratio"},
	{"store.read_s", "s"},
	{"store.write_s", "s"},
	{"store.hit_ratio", "ratio"},
	{"store.bytes_per_job", "B"},
	{"bus.published_per_job", "count"},
	{"bus.dropped", "count"},
	{"bus.publish_s", "s"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// workloads maps each workload name to its implementation. Names are
// stable: later changes refer to workloads by them.
var workloads = map[string]func(*bench) error{
	"trials-kn":            runTrialsKn,
	"trials-regular-dense": runTrialsRegularDense,
	"serve-jobs-mixed":     runServeJobsMixed,
	"sweep-variants":       runSweepVariants,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		sc:       fullScale,
		dir:      dir,
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	res, err := b.run(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes the workload, prints the environment stamp and the metric
// table to out, writes the trace file of a traced run, and returns the
// result line.
func (b *bench) run(out io.Writer) (*result, error) {
	b.metrics = map[string]float64{}
	b.notes = map[string]string{}
	work, err := os.MkdirTemp(mkdirAll(filepath.Join(b.dir, "work")), b.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b.work = work
	if err := workloads[b.workload](b); err != nil {
		return nil, fmt.Errorf("%s: %w", b.workload, err)
	}
	env := stamp(b.seed)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(out, "# env %s\n", envLine)
	defs := endToEnd
	if b.tr != nil {
		defs = perLayer
		path := filepath.Join(mkdirAll(filepath.Join(b.dir, "traces")), fmt.Sprintf("%s-%d.json", b.workload, b.seed))
		if err := b.tr.write(path, b.workload, env); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# trace %s (%d spans)\n", path, len(b.tr.spans))
	}
	res := &result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := b.metrics[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-32s %16.6g %-9s %s\n", d.name, v, d.unit, b.notes[d.name])
	}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(out, "%-32s %16.6g %-9s %d of %d jobs failed a check\n", "failed_frac", frac, "ratio", b.failed, b.attempted)
	return res, nil
}

// mkdirAll creates dir (and parents) and returns it; a failure surfaces
// at the first use of the directory.
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}
