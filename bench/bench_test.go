package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// named lists the metrics each workload reports under the names its
// documentation uses, besides the end-to-end ones.
var named = map[string][]string{
	"ingest-http":  {"http_rps", "http_p50_us", "http_p99_us", "http_open_p90_ms.r2000", "http_open_p90_ms.r5000", "error_rate"},
	"replay-mixed": {"replay_rps", "sim_steady_p99_cycles", "sim_makespan_cycles", "error_rate"},
	"fused-heavy":  {"replay_rps", "sim_steady_p99_cycles", "sim_makespan_cycles", "error_rate"},
	"dse-codesign": {"dse_s", "resweep_ms", "sim_best_edp_geomean", "error_rate"},
}

func checkResult(t *testing.T, name string, res *result, want []string) {
	t.Helper()
	for _, p := range res.problems {
		t.Errorf("%s: failed check: %s", name, p)
	}
	if res.attempted == 0 {
		t.Errorf("%s: attempted nothing", name)
	}
	for _, m := range want {
		if _, ok := res.value(m); !ok {
			t.Errorf("%s: metric %s not reported", name, m)
		}
	}
	b, err := res.line(want)
	if err != nil {
		t.Fatal(err)
	}
	var last struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(b, &last); err != nil {
		t.Fatal(err)
	}
	if !last.Correct || last.Attempted < 1 || len(last.Metrics) != len(want) {
		t.Errorf("%s: last line %s", name, b)
	}
}

// TestWorkloadsShort runs every workload at scaled-down sizes: the
// correctness checks must pass and every metric must be reported.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloadNames {
		res, err := runWorkload(w, params{seed: 2, seconds: 0.01, short: true})
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, w, res, append(slices.Clone(endToEnd), named[w]...))
	}
}

// TestLadderShort runs a traced workload and the per-layer ladder.
func TestLadderShort(t *testing.T) {
	tr := newTracer()
	res, err := runWorkload("fused-heavy", params{seed: 2, seconds: 0.04, short: true, tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "ladder", res, perLayer)
	if len(tr.durations("sched.Extend.light")) == 0 || len(tr.durations("replay.Run")) == 0 {
		t.Error("ladder recorded no spans")
	}
	if err := tr.write(t.TempDir() + "/spans.json"); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), workloadNames},
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, program reports %v", c.what, c.got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
