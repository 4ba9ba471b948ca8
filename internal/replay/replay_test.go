package replay

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/capture"
	"repro/internal/config"
	"repro/internal/dataflow"
	"repro/internal/dse"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/maestro"
	"repro/internal/scenario"
)

func newTestCache() *maestro.Cache { return maestro.NewCache(energy.Default28nm()) }

func testHDAs(t testing.TB, n int) []*accel.HDA {
	t.Helper()
	h, err := accel.New("replay-test", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	hdas := make([]*accel.HDA, n)
	for i := range hdas {
		hdas[i] = h
	}
	return hdas
}

func testTrace(t testing.TB) *capture.Trace {
	t.Helper()
	spec := scenario.Spec{Name: "replay-test", Kind: scenario.Zipf, Seed: 7, Requests: 24, Tenants: 3}
	entries, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &capture.Trace{Note: spec.Note(), Entries: entries}
}

func mustRun(t *testing.T, tr *capture.Trace, o Options) (*Digest, []byte) {
	t.Helper()
	d, err := Run(context.Background(), newTestCache(), testHDAs(t, 2), tr, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return d, b
}

func TestRunDeterministic(t *testing.T) {
	tr := testTrace(t)
	d1, b1 := mustRun(t, tr, Options{Fleet: fleet.DefaultOptions()})
	_, b2 := mustRun(t, tr, Options{Fleet: fleet.DefaultOptions()})
	if !bytes.Equal(b1, b2) {
		lines, _ := DiffJSON(b1, b2)
		t.Fatalf("same trace + config produced different digests:\n%s", strings.Join(lines, "\n"))
	}
	if !d1.Conservation.Holds {
		t.Fatalf("conservation violated: %+v", d1.Conservation)
	}
	if d1.Counters.Completed == 0 {
		t.Fatal("no completions")
	}
	if got := int64(len(tr.Entries)); d1.Counters.Submitted+d1.Counters.Shed+sum(d1.Rejects) != got {
		t.Fatalf("accounting gap: submitted %d + shed %d + rejects %v != %d entries",
			d1.Counters.Submitted, d1.Counters.Shed, d1.Rejects, got)
	}
}

func sum(m map[string]int64) int64 {
	var s int64
	for _, v := range m { //herald:nondet additive fold; sums commute
		s += v
	}
	return s
}

func TestRunWithFaultsDeterministic(t *testing.T) {
	tr := testTrace(t)
	horizon := tr.Entries[len(tr.Entries)-1].ArrivalCycle
	plan, err := fleet.ParseFaultPlan(
		"100:0:stall:4," +
			itoa(horizon/3) + ":1:admit-fail:2," +
			itoa(horizon/2) + ":0:crash," +
			itoa(horizon*3/4) + ":0:recover")
	if err != nil {
		t.Fatal(err)
	}
	opts := func() Options {
		o := Options{Fleet: fleet.DefaultOptions()}
		o.Fleet.Faults = plan
		return o
	}
	d1, b1 := mustRun(t, tr, opts())
	_, b2 := mustRun(t, tr, opts())
	if !bytes.Equal(b1, b2) {
		lines, _ := DiffJSON(b1, b2)
		t.Fatalf("faulted replay not deterministic:\n%s", strings.Join(lines, "\n"))
	}
	if !d1.Conservation.Holds {
		t.Fatalf("conservation violated under faults: %+v", d1.Conservation)
	}
	if len(d1.FaultDecisions) == 0 {
		t.Fatal("fault plan produced no decisions")
	}
	if d1.Setup.FaultEvents != 4 {
		t.Fatalf("setup records %d fault events, want 4", d1.Setup.FaultEvents)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestRunWindowed(t *testing.T) {
	tr := testTrace(t)
	_, b1 := mustRun(t, tr, Options{Fleet: fleet.DefaultOptions(), Window: 8})
	_, b2 := mustRun(t, tr, Options{Fleet: fleet.DefaultOptions(), Window: 8})
	if !bytes.Equal(b1, b2) {
		lines, _ := DiffJSON(b1, b2)
		t.Fatalf("windowed replay not deterministic:\n%s", strings.Join(lines, "\n"))
	}
}

func TestDiffSpotsChange(t *testing.T) {
	tr := testTrace(t)
	d1, _ := mustRun(t, tr, Options{Fleet: fleet.DefaultOptions()})
	rr := Options{Fleet: fleet.DefaultOptions()}
	rr.Fleet.Policy = fleet.RoundRobin
	d2, _ := mustRun(t, tr, rr)
	lines, err := Diff(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "setup.policy:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("diff missed the policy change: %v", lines)
	}
	same, err := Diff(d1, d1)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 0 {
		t.Fatalf("self-diff not empty: %v", same)
	}
}

func TestRunValidation(t *testing.T) {
	tr := testTrace(t)
	cache := newTestCache()
	hdas := testHDAs(t, 2)
	ctx := context.Background()

	if _, err := Run(ctx, cache, hdas, nil, Options{Fleet: fleet.DefaultOptions()}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Run(ctx, cache, hdas, &capture.Trace{}, Options{Fleet: fleet.DefaultOptions()}); err == nil {
		t.Error("empty trace accepted")
	}
	bad := &capture.Trace{Entries: []capture.Entry{{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: -1}}}
	if _, err := Run(ctx, cache, hdas, bad, Options{Fleet: fleet.DefaultOptions()}); err == nil {
		t.Error("negative arrival accepted")
	}
	ctl := Options{Fleet: fleet.DefaultOptions(), Controller: &fleet.ControllerOptions{}}
	if _, err := Run(ctx, cache, hdas, tr, ctl); err == nil ||
		!strings.Contains(err.Error(), "window") {
		t.Errorf("controller without window not rejected: %v", err)
	}
	neg := Options{Fleet: fleet.DefaultOptions(), Window: -1}
	if _, err := Run(ctx, cache, hdas, tr, neg); err == nil {
		t.Error("negative window accepted")
	}
}

func TestHashStable(t *testing.T) {
	tr := testTrace(t)
	d, _ := mustRun(t, tr, Options{Fleet: fleet.DefaultOptions()})
	h1, err := d.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := d.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("hash unstable or malformed: %q vs %q", h1, h2)
	}
}

// TestRunFleetFusion: fusion on a mixed replica set replays. The
// fleet routes one segment per admission there, and every segment's
// successor is dispatched inside Fleet.Admit in a fixed order, so the
// zipf corpus trace fused across two replicas renders one digest twice
// and at GOMAXPROCS 1 and 4, counts each request once, conserves
// segments, and hands segments across replicas.
func TestRunFleetFusion(t *testing.T) {
	tr := corpusTrace(t, "zipf")
	cache := newTestCache()
	resplit, err := accel.New("replay-test-768", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 768, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 256, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	hdas := append(testHDAs(t, 1), resplit)
	plans, err := config.FusionPlans(cache, hdas[0], dse.ObjectiveEDP, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) (*Digest, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		o := Options{Fleet: fleet.DefaultOptions(), Window: 16}
		o.Fleet.Serve.Plans = plans
		d, err := Run(context.Background(), cache, hdas, tr, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return d, b
	}
	d, want := run(1)
	for _, procs := range []int{1, 4} {
		if _, b := run(procs); !bytes.Equal(b, want) {
			lines, _ := DiffJSON(want, b)
			t.Fatalf("GOMAXPROCS=%d: fleet-fused replay diverged:\n%s", procs, strings.Join(lines, "\n"))
		}
	}
	seg := d.Counters.Segments
	if seg.FusedRequests == 0 || seg.Segments != seg.SegmentsCompleted+seg.SegmentsFailed+seg.SegmentsLost {
		t.Fatalf("segments not conserved: %+v", seg)
	}
	if seg.FusedRequests != seg.FusedCompleted+seg.FusedFailed {
		t.Fatalf("fused requests not conserved: %+v", seg)
	}
	if d.Counters.Submitted != int64(len(tr.Entries)) || seg.FusedRequests != d.Counters.Submitted {
		t.Fatalf("%d entries, %d submitted, %d fused: each fused request must count once",
			len(tr.Entries), d.Counters.Submitted, seg.FusedRequests)
	}
	if !d.Conservation.Holds {
		t.Fatalf("conservation violated: %+v", d.Conservation)
	}
	if d.Counters.CrossReplicaHandoffs == 0 {
		t.Fatal("no segment crossed replicas")
	}
}

// TestRunEngineFusionAcrossCrash: chains admitted whole to one engine
// (identical replicas) survive a replica crash in the fleet's fused
// ledger. Recovery retires the crashed engine and starts a fresh one;
// the ledger folds each request once, at resolution, so on a trace
// whose every model fuses each submitted request is one fused request
// (a chain resumed on a survivor is not counted again), each completed
// request a completed fused request, and segments are conserved.
func TestRunEngineFusionAcrossCrash(t *testing.T) {
	tr := corpusTrace(t, "zipf")
	cache := newTestCache()
	hdas := testHDAs(t, 3)
	plans, err := config.FusionPlans(cache, hdas[0], dse.ObjectiveEDP, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Fleet: fleet.DefaultOptions(), Window: 8}
	o.Fleet.Serve.Plans = plans
	if o.Fleet.Faults, err = fleet.ParseFaultPlan("6000000:0:crash,9000000:0:recover"); err != nil {
		t.Fatal(err)
	}
	d, err := Run(context.Background(), cache, hdas, tr, o)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Counters
	if c.Crashes != 1 || c.Recoveries != 1 {
		t.Fatalf("fault plan did not fire: %d crashes, %d recoveries", c.Crashes, c.Recoveries)
	}
	if !d.Conservation.Holds || c.Completed == 0 {
		t.Fatalf("conservation: %+v", d.Conservation)
	}
	seg := c.Segments
	if seg.FusedRequests != c.Submitted || seg.FusedLost != 0 {
		t.Errorf("%d fused requests (%d lost) for %d submitted", seg.FusedRequests, seg.FusedLost, c.Submitted)
	}
	if seg.FusedCompleted != c.Completed {
		t.Errorf("%d fused requests completed, %d requests completed", seg.FusedCompleted, c.Completed)
	}
	if seg.FusedRequests != seg.FusedCompleted+seg.FusedFailed+seg.FusedLost ||
		seg.Segments != seg.SegmentsCompleted+seg.SegmentsFailed+seg.SegmentsLost {
		t.Errorf("segments not conserved: %+v", seg)
	}
}

// TestRunMergedDecisionLog: a replay with both a fault plan and the
// control ladder keeps one decision log. The digest's control list is
// exactly the Step returns of the same windowed protocol run by hand,
// its fault list is the log's other entries, seqs strictly increase
// across both kinds, and the mixed log exports the same fault plan as
// its fault entries alone.
func TestRunMergedDecisionLog(t *testing.T) {
	tr := corpusTrace(t, "flipflop")
	cache := newTestCache()
	hdas, o := armOptions(t, cache, []string{"-faults", "1000000:0:crash,2000000:0:recover,4000000:1:stall:3",
		"-window", "16", "-pe-units", "4", "-bw-units", "2", "-mix-half-life", "64",
		"-max-queue", "4096", "-repartition", "-elastic-quantum", "256"})
	ctx := context.Background()
	d, err := Run(ctx, cache, hdas, tr, o)
	if err != nil {
		t.Fatal(err)
	}

	fo := o.Fleet
	fo.Serve.Manual = true
	f, err := fleet.New(cache, hdas, fo)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := fleet.NewController(f, *o.Controller)
	if err != nil {
		t.Fatal(err)
	}
	var steps []fleet.Decision
	for i, e := range tr.Entries {
		_, _ = f.Submit(e.Request())
		if (i+1)%o.Window == 0 {
			f.Admit()
			dec, err := ctrl.Step(ctx)
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, dec)
		}
	}
	if _, err := f.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 || !reflect.DeepEqual(d.Control, steps) {
		t.Fatalf("digest control %+v\nStep returns %+v", d.Control, steps)
	}

	log := f.Decisions()
	var faults []fleet.Event
	for i, ev := range log {
		if i > 0 && ev.Seq <= log[i-1].Seq {
			t.Fatalf("seq %d after %d: the log is not one seq order", ev.Seq, log[i-1].Seq)
		}
		if ev.Kind == "control" {
			if ev.Control == nil || ev.Replica != -1 {
				t.Errorf("control entry %+v", ev)
			}
			continue
		}
		faults = append(faults, ev)
	}
	if len(faults) == 0 || len(faults)+len(steps) != len(log) {
		t.Fatalf("%d fault and %d control entries in a %d-entry log", len(faults), len(steps), len(log))
	}
	if !reflect.DeepEqual(d.FaultDecisions, faults) {
		t.Errorf("digest fault_decisions differ from the log's fault entries")
	}
	mixed, err := fleet.ExportFaultPlan(log)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := fleet.ExportFaultPlan(faults)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fleet.FormatFaultPlan(mixed), fleet.FormatFaultPlan(alone); got != want || got == "" {
		t.Errorf("mixed log exports %q, fault entries alone %q", got, want)
	}
}
