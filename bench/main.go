// Command heraldbench is Herald's end-to-end and per-layer benchmark.
//
// It runs four workloads, each in a process of its own:
//
//	ingest-http   what heraldd serves: HTTP requests through fleet.Handler
//	replay-mixed  offline replay of hostile scenario traces, with controllers
//	fused-heavy   offline replay of heavy models under engine-level fusion
//	dse-codesign  the paper's co-design grid plus warm pruned re-sweeps
//
// From the repository root,
//
//	bash bench/run.sh --workload ingest-http --seed 1 --seconds 10 --trace 0
//
// builds the program and runs one workload. Every input is generated
// from -seed. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; -trace 0 reports the
// end-to-end metrics, -trace 1 the per-layer ones. Lines before it
// name every metric the run measured ("metric <name> <value> <unit>").
// The exit code is 0 only when every correctness check passed.
//
// Without -workload the program runs all four workloads, one child
// process after another; -runs N repeats that N times in alternating
// order and writes medians and quartiles to -out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// endToEnd and perLayer are the metric names the last output line
// carries with tracing off and on; BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"setup_s", "throughput_per_s", "latency_p50_ms", "latency_tail_ms", "mem_live_mb"}
	perLayer = []string{
		"maestro.estimate_ns", "maestro.lookup_ns", "maestro.column_us", "maestro.fill_ms",
		"maestro.cost_entries", "maestro.mapping_entries",
		"sched.extend_us_per_req.light", "sched.extend_us_per_req.fused", "sched.extend_allocs_per_req",
		"sched.retained_kb_per_req", "sched.schedule_us",
		"dse.sweep_ms_warm", "dse.explored", "dse.pruned", "dse.prune_ratio", "dse.plan_segments_us",
		"serve.submit_us", "serve.wait_us", "serve.handoff_us", "serve.reassign_us",
		"fleet.submit_us", "fleet.dispatch_us", "fleet.wait_us", "fleet.stats_us", "fleet.replica_skew",
		"fleet.elastic_step_ms", "fleet.migrate_step_ms",
		"http.handler_us", "http.codec_us", "http.transport_us", "http.resp_bytes",
		"http.gen_late_ms.p50", "http.gen_late_ms.p99",
		"scenario.generate_us_per_entry", "capture.encode_us_per_entry", "capture.decode_us_per_entry",
		"replay.run_ms", "replay.window_us_per_req", "replay.digest_us", "replay.digest_bytes",
		"sim.steady_p99_cycles", "sim.makespan_cycles", "sim.best_edp_geomean",
		"proc.peak_rss_mb", "proc.gc_count", "proc.gc_pause_ms", "proc.alloc_kb_per_req", "trace.overhead_pct",
	}
)

// workloadNames is the default run order.
var workloadNames = []string{"ingest-http", "replay-mixed", "fused-heavy", "dse-codesign"}

// params is what one workload run receives.
type params struct {
	seed    int64
	seconds float64 // measurement budget; every run completes at least one repetition
	short   bool    // scaled-down sizes (the package test)
	tr      *tracer // nil when untraced
}

type metric struct {
	name  string
	unit  string
	value float64
}

// result collects one run's metrics and correctness checks.
type result struct {
	attempted, failed int64
	problems          []string
	metrics           []metric
	units             float64 // units of work the run completed (requests, design points)
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// check records a correctness failure when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// fail records an operation error as a correctness failure.
func (r *result) fail(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

func (r *result) value(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// line renders the last output line: correctness, counts and the named
// metrics. A named metric that is missing or not finite is a failure.
func (r *result) line(names []string) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(names))
	for _, n := range names {
		for _, m := range r.metrics {
			if m.name == n {
				ms[n] = val{m.value, m.unit}
			}
		}
		if _, ok := ms[n]; !ok {
			r.problems = append(r.problems, fmt.Sprintf("metric %s was not measured", n))
		} else if math.IsNaN(ms[n].Value) || math.IsInf(ms[n].Value, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", n, ms[n].Value))
			delete(ms, n)
		}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{len(r.problems) == 0, max(r.attempted, 1), r.failed, ms})
}

func runWorkload(name string, p params) (*result, error) {
	var fn func(params, *result)
	switch name {
	case "ingest-http":
		fn = ingestHTTP
	case "replay-mixed":
		fn = replayMixed
	case "fused-heavy":
		fn = fusedHeavy
	case "dse-codesign":
		fn = dseCodesign
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	res := &result{}
	if p.tr == nil {
		fn(p, res)
		return res, nil
	}
	traced(fn, p, res)
	return res, nil
}

// traced runs the workload once untraced and once with spans around
// every unit of work, each on a quarter of the budget, then the
// per-layer ladder. Process metrics cover the traced pass.
func traced(fn func(params, *result), p params, res *result) {
	tr := p.tr
	p.seconds /= 4
	p.tr = nil
	plain := &result{}
	fn(p, plain)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.tr = tr
	withSpans := &result{}
	fn(p, withSpans)
	runtime.ReadMemStats(&after)
	res.add("proc.peak_rss_mb", "MB", peakRSSMB())
	res.add("proc.gc_count", "count", float64(after.NumGC-before.NumGC))
	res.add("proc.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	res.add("proc.alloc_kb_per_req", "KB", float64(after.TotalAlloc-before.TotalAlloc)/1024/max(withSpans.units, 1))
	a, _ := plain.value("throughput_per_s")
	b, _ := withSpans.value("throughput_per_s")
	res.add("trace.overhead_pct", "%", (a/b-1)*100)
	for _, r := range []*result{plain, withSpans} {
		res.attempted += r.attempted
		res.failed += r.failed
		res.problems = append(res.problems, r.problems...)
	}
	ladder(p, res)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("heraldbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process (default: all four, each in a child process)")
	seed := fs.Int64("seed", 1, "input seed; seed 2 is held out for validating claims")
	seconds := fs.Float64("seconds", 20, "measurement budget per workload run")
	traceFlag := fs.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics; any other value: per-layer metrics with spans written to that file")
	runs := fs.Int("runs", 0, "repeat every workload this many times in alternating order and write -out")
	out := fs.String("out", "", "result file for -runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 0 {
		fmt.Fprintln(stderr, "heraldbench: bad arguments; see -help")
		return 2
	}
	// GOMAXPROCS follows nproc (the CPUs this process may run on), set
	// explicitly because results record it.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *workload == "" || *runs > 0 {
		return parent(stdout, stderr, parentConfig{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag, runs: max(*runs, 1), out: *out,
		})
	}

	p := params{seed: *seed, seconds: *seconds}
	if *traceFlag != "0" {
		p.tr = newTracer()
	}
	start := time.Now()
	res, err := runWorkload(*workload, p)
	if err != nil {
		fmt.Fprintln(stderr, "heraldbench:", err)
		return 2
	}
	if p.tr != nil && *traceFlag != "1" {
		res.fail(p.tr.write(*traceFlag))
	}
	names := endToEnd
	if p.tr != nil {
		names = perLayer
	}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", m.name, m.value, m.unit)
	}
	last, err := res.line(names)
	if err != nil {
		fmt.Fprintln(stderr, "heraldbench:", err)
		return 2
	}
	for _, pr := range res.problems {
		fmt.Fprintf(stdout, "# FAILED CHECK: %s\n", pr)
	}
	fmt.Fprintf(stdout, "# %s seed %d: %d attempted, %d failed, %.1fs, GOMAXPROCS %d\n",
		*workload, *seed, res.attempted, res.failed, time.Since(start).Seconds(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "%s\n", last)
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}
