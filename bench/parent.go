package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

type parentConfig struct {
	workload string // "" runs all four
	seed     int64
	seconds  float64
	trace    string
	runs     int
	out      string
}

// summary is one metric's distribution over repeated runs.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// parent runs each workload in a fresh child process, one at a time,
// reversing the order on every other round so no workload always runs
// first, and summarizes every metric the children reported.
func parent(stdout, stderr io.Writer, c parentConfig) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "heraldbench:", err)
		return 2
	}
	names := workloadNames
	if c.workload != "" {
		names = []string{c.workload}
	}
	samples := make(map[string]map[string][]float64)
	units := make(map[string]string)
	status := 0
	for r := 0; r < c.runs; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			trace := c.trace
			if trace != "0" && trace != "1" {
				trace = fmt.Sprintf("%s.%s.%d.json", strings.TrimSuffix(trace, ".json"), w, r)
			}
			var buf bytes.Buffer
			cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(c.seed, 10),
				"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "heraldbench: %s run %d: %v\n", w, r, err)
				status = 1
			}
			if samples[w] == nil {
				samples[w] = make(map[string][]float64)
			}
			sc := bufio.NewScanner(&buf)
			for sc.Scan() {
				f := strings.Fields(sc.Text())
				if len(f) != 4 || f[0] != "metric" {
					continue
				}
				v, err := strconv.ParseFloat(f[2], 64)
				if err != nil {
					continue
				}
				samples[w][f[1]] = append(samples[w][f[1]], v)
				units[f[1]] = f[3]
			}
		}
	}

	table := make(map[string]map[string]summary)
	fmt.Fprintf(stdout, "# %-13s %-34s %14s %14s %14s %3s\n", "workload", "metric", "median", "p25", "p75", "n")
	for _, w := range names {
		table[w] = make(map[string]summary)
		ms := make([]string, 0, len(samples[w]))
		for m := range samples[w] {
			ms = append(ms, m)
		}
		slices.Sort(ms)
		for _, m := range ms {
			q1, q2, q3 := quartiles(samples[w][m])
			s := summary{Unit: units[m], Median: q2, P25: q1, P75: q3, N: len(samples[w][m])}
			table[w][m] = s
			fmt.Fprintf(stdout, "# %-13s %-34s %14.6g %14.6g %14.6g %3d %s\n", w, m, s.Median, s.P25, s.P75, s.N, s.Unit)
		}
	}
	if c.out != "" {
		b, err := json.MarshalIndent(struct {
			Seed       int64                         `json:"seed"`
			Seconds    float64                       `json:"seconds"`
			Trace      string                        `json:"trace"`
			Runs       int                           `json:"runs"`
			NProc      int                           `json:"nproc"`
			GOMAXPROCS int                           `json:"gomaxprocs"`
			GoVersion  string                        `json:"go_version"`
			Commit     string                        `json:"commit"`
			Workloads  map[string]map[string]summary `json:"workloads"`
		}{c.seed, c.seconds, c.trace, c.runs, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), table}, "", "  ")
		if err == nil {
			err = os.WriteFile(c.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "heraldbench:", err)
			return 2
		}
	}
	return status
}

// commit names the source revision being measured: the git HEAD of the
// working directory, or "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
