package config

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/fleet"
)

func TestParsePartition(t *testing.T) {
	parts, err := ParsePartition("nvdla:128:4, shi-diannao:896:12")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0].PEs != 128 || parts[1].BWGBps != 12 {
		t.Errorf("parts = %+v", parts)
	}
	if parts[0].Style != dataflow.NVDLA || parts[1].Style != dataflow.ShiDiannao {
		t.Error("styles wrong")
	}
	for _, bad := range []string{"nvdla:128", "tpu:128:4", "nvdla:x:4", "nvdla:128:y", ""} {
		if _, err := ParsePartition(bad); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
	// heraldplay's default -partition (heraldd's usual fixed one)
	// builds an Edge HDA.
	parts, err = ParsePartition("nvdla:512:8, shi-diannao:512:8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := accel.New("heraldd", accel.Edge, parts); err != nil {
		t.Errorf("even split not buildable: %v", err)
	}
}

func TestParseWorkload(t *testing.T) {
	cases := map[string]int{ // name -> expected instances
		"arvr-a":         10,
		"ARVR-B":         12,
		"mlperf":         5,
		"mlperf8":        40,
		"unet:3":         3,
		"resnet50":       1,
		"mobilenetv1:16": 16,
	}
	for name, want := range cases {
		w, err := ParseWorkload(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if w.NumInstances() != want {
			t.Errorf("%s: %d instances, want %d", name, w.NumInstances(), want)
		}
	}
	for _, bad := range []string{"vgg99", "unet:x", "unet:0"} {
		if _, err := ParseWorkload(bad); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}

// TestBootstrapWorkload: heraldd -bootstrap resolves through
// ParseWorkload; every name it accepted before still builds the same
// workload, and unknown names are still rejected.
func TestBootstrapWorkload(t *testing.T) {
	cases := map[string]int{"arvr-a": 10, "arvra": 10, "ARVR-B": 12, "arvrb": 12, "mlperf": 5}
	for name, want := range cases {
		w, err := ParseWorkload(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if w.NumInstances() != want {
			t.Errorf("%s: %d instances, want %d", name, w.NumInstances(), want)
		}
	}
	if _, err := ParseWorkload("nope"); err == nil {
		t.Error("unknown bootstrap workload accepted")
	}
}

// parseServing binds the serving family with heraldplay's -partition
// default and parses args.
func parseServing(t *testing.T, args ...string) *Serving {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := BindServing(fs, "nvdla:512:8,shi-diannao:512:8")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServingOptions pins the flag-to-fleet translation: the defaults
// are the library defaults, every flag lands in its option, and the
// flag validation both binaries share rejects bad values.
func TestServingOptions(t *testing.T) {
	o, err := parseServing(t).FleetOptions()
	if err != nil {
		t.Fatal(err)
	}
	if def := fleet.DefaultOptions(); o.Policy != def.Policy || o.Serve.ClockGHz != def.Serve.ClockGHz ||
		o.Serve.MaxQueue != def.Serve.MaxQueue || o.Serve.MaxBatch != def.Serve.MaxBatch ||
		o.Serve.Elastic || o.Faults != nil || o.MixHalfLife != 0 {
		t.Errorf("default fleet options: %+v", o)
	}
	if h := o.Health; h.FailureThreshold != 3 || h.ProbeAfter != 8 || h.MaxAttempts != 3 || h.ShedSLAFactor != 0 {
		t.Errorf("default health options: %+v", h)
	}

	s := parseServing(t, "-replicas", "3", "-fleet-policy", "round-robin", "-clock-ghz", "2",
		"-max-queue", "16", "-max-batch", "4", "-mix-half-life", "64", "-faults", "1000:0:crash",
		"-shed-sla-factor", "1.5", "-max-attempts", "5", "-breaker-threshold", "2", "-breaker-probe-after", "9",
		"-repartition", "-elastic-preempt-below", "1")
	o, err = s.FleetOptions()
	if err != nil {
		t.Fatal(err)
	}
	if o.Policy != fleet.RoundRobin || o.Serve.ClockGHz != 2 || o.Serve.MaxQueue != 16 || o.Serve.MaxBatch != 4 ||
		o.MixHalfLife != 64 || o.Faults == nil || len(o.Faults.Events) != 1 || !o.Serve.Elastic {
		t.Errorf("fleet options: %+v", o)
	}
	if h := o.Health; h.FailureThreshold != 2 || h.ProbeAfter != 9 || h.MaxAttempts != 5 || h.ShedSLAFactor != 1.5 {
		t.Errorf("health options: %+v", h)
	}
	hda, err := s.HDA("test")
	if err != nil || hda == nil {
		t.Fatalf("default partition HDA: %v %v", hda, err)
	}
	if r := s.Replicas(hda); len(r) != 3 || r[0] != hda || r[2] != hda {
		t.Errorf("replicas: %v", r)
	}

	// heraldd's empty default leaves the HDA to the bootstrap DSE.
	fs := flag.NewFlagSet("heraldd", flag.ContinueOnError)
	if hda, err := BindServing(fs, "").HDA("heraldd"); hda != nil || err != nil {
		t.Errorf("empty -partition: %v %v", hda, err)
	}

	for _, bad := range [][]string{
		{"-replicas", "0"},
		{"-fuse", "-max-segments", "1"},
		{"-fleet-policy", "random"},
		{"-faults", "1000:0:explode"},
		{"-repartition", "-repartition-confirm", "0"},
	} {
		if _, err := parseServing(t, bad...).FleetOptions(); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	if _, err := parseServing(t, "-class", "huge").HDA("test"); err == nil {
		t.Error("bad class accepted")
	}
	if _, err := parseServing(t, "-partition", "nvdla:512:8").HDA("test"); err == nil {
		t.Error("partition over the class budget accepted")
	}
}

// TestFlagsDocumented: every flag the shared families register has a
// row in docs/OPERATIONS.md, so the runbook cannot drift from the
// binaries.
func TestFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindServing(fs, "")
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if !strings.Contains(string(doc), "`-"+f.Name+"`") {
			t.Errorf("flag -%s is not documented in docs/OPERATIONS.md", f.Name)
		}
	})
	if n != 27 {
		t.Errorf("the serving and ladder families register %d flags, want 19 + 8", n)
	}
}

// FuzzParsePartition: the -partition flag crosses a trust boundary.
// Parsing must never panic, and every accepted spec must either build
// an HDA that keeps Definition 1 (finite positive shares summing to
// the class budget) or be rejected by accel.New with an error.
func FuzzParsePartition(f *testing.F) {
	for _, seed := range []string{
		"nvdla:512:8,shi-diannao:512:8",
		"nvdla:512:8, shi-diannao:512:8",
		"nvdla:128:4, shi-diannao:896:12",
		"nvdla:768:8,shi-diannao:256:8",
		"nvdla:1024:32,shi-diannao:3072:32",
		"nvdla:512", "tpu:512:8", "nvdla:x:8", "nvdla:512:y",
		"nvdla:1024:NaN",
		// Two int64-max shares wrap the PE sum back onto the budget.
		"nvdla:9223372036854775807:8,nvdla:9223372036854775807:4,nvdla:1026:4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		parts, err := ParsePartition(spec)
		if err != nil {
			return
		}
		h, err := accel.New("fuzz", accel.Edge, parts)
		if err != nil {
			return
		}
		pes, bw := 0, 0.0
		for _, s := range h.Subs {
			if s.HW.PEs < 1 || s.HW.PEs > accel.Edge.PEs || !(s.HW.BWGBps > 0) || math.IsInf(s.HW.BWGBps, 0) {
				t.Fatalf("%q built an illegal sub-accelerator %+v", spec, s.HW)
			}
			pes += s.HW.PEs
			bw += s.HW.BWGBps
		}
		if pes != accel.Edge.PEs || math.Abs(bw-accel.Edge.BWGBps) > 1e-9 {
			t.Fatalf("%q built %d PEs / %g GB/s on %s", spec, pes, bw, accel.Edge.Name)
		}
	})
}

// TestLadderOptions pins the flag-to-options translation: -repartition
// gates the ladder, and an explicit 0 means "any improvement" for the
// thresholds and "no cooldown", where the library reads 0 as default.
func TestLadderOptions(t *testing.T) {
	parse := func(args ...string) *Ladder {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		l := BindLadder(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return l
	}
	if o, err := parse("-elastic-quantum", "256").Options(); o != nil || err != nil {
		t.Errorf("ladder without -repartition: %+v %v", o, err)
	}

	o, err := parse("-repartition").Options()
	if err != nil {
		t.Fatal(err)
	}
	if o.Threshold != 0.05 || o.Confirm != 2 || o.Cooldown != 3 || o.PEQuantum != 0 ||
		o.ReassignThreshold != 0.02 || o.PreemptBelow != 0 || o.PreemptMax != 2 {
		t.Errorf("default ladder: %+v", *o)
	}

	o, err = parse("-repartition", "-elastic-quantum", "256", "-repartition-threshold", "0",
		"-elastic-threshold", "0", "-repartition-cooldown", "0", "-elastic-preempt-below", "3").Options()
	if err != nil {
		t.Fatal(err)
	}
	if o.PEQuantum != 256 || o.PreemptBelow != 3 || o.Cooldown != -1 ||
		o.Threshold <= 0 || o.Threshold > 1e-9 || o.ReassignThreshold <= 0 || o.ReassignThreshold > 1e-9 {
		t.Errorf("explicit zeros: %+v", *o)
	}

	for _, bad := range [][]string{
		{"-repartition", "-repartition-confirm", "0"},
		{"-repartition", "-elastic-quantum", "-1"},
		{"-repartition", "-elastic-preempt-below", "-1"},
		{"-repartition", "-elastic-preempt-max", "0"},
	} {
		if _, err := parse(bad...).Options(); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}
