package fleet

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/maestro"
	"repro/internal/serve"
)

// elasticFleet builds a 2-replica fleet on the given start partition
// with elastic engines and an attached controller. No sweeper unless
// added via fopts, so the ladder's migration rung stays unarmed.
func elasticFleet(t testing.TB, start *accel.HDA, copts ControllerOptions, fopts ...func(*Options)) (*Fleet, *Controller) {
	t.Helper()
	opts := DefaultOptions()
	opts.Serve.Elastic = true
	for _, fo := range fopts {
		fo(&opts)
	}
	f, err := Replicated(newTestCache(), start, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(f, copts)
	if err != nil {
		t.Fatal(err)
	}
	return f, c
}

// step runs one controller step and, when the step reassigned,
// applies the legality oracle (validateReplicas). A preempting step is
// checked once its revoked work has resumed: until then the schedule
// is a rolled-back prefix by design (TestLadderPreemptsOnSLARisk
// validates after the drain).
func step(t testing.TB, f *Fleet, c *Controller) Decision {
	t.Helper()
	d, err := c.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Reassigned > 0 {
		validateReplicas(t, f)
	}
	return d
}

// validateReplicas is the legality oracle: every active replica's
// committed schedule must pass sched.Schedule.Validate (coverage,
// dependence order, per-sub serialization, the memory ceiling).
func validateReplicas(t testing.TB, f *Fleet) {
	t.Helper()
	f.mu.Lock()
	reps := append([]*replica(nil), f.replicas...)
	f.mu.Unlock()
	for _, r := range reps {
		if err := r.engine.Snapshot().Validate(); err != nil {
			t.Fatalf("replica %d schedule illegal: %v", r.id, err)
		}
	}
}

// TestElasticReassignsOnSkewedMix: a fleet serving the even 512/512
// split under mobilenet-dominated traffic re-slices in place to the
// mobilenet-optimal 768/256 neighbor (PEQuantum 256 puts it one move
// away) — same generation, zero migrations, and requests submitted
// after the reassignment still complete and conserve.
func TestElasticReassignsOnSkewedMix(t *testing.T) {
	f, c := elasticFleet(t, testHDA(t), ControllerOptions{PEQuantum: 256})

	waitAll(t, submitN(t, f, "mobile", "mobilenetv1", 6))
	d := step(t, f, c)
	if d.Action != ActionReassigned {
		t.Fatalf("step on skewed mix: %+v", d)
	}
	if d.Reassigned != 2 {
		t.Fatalf("reassigned %d replicas, want 2", d.Reassigned)
	}
	if d.Improvement < c.opts.ReassignThreshold {
		t.Fatalf("reassignment below threshold: %+v", d)
	}
	if f.Generation() != 0 || c.Migrations() != 0 {
		t.Fatalf("reassignment changed generation (%d) or migrated (%d)", f.Generation(), c.Migrations())
	}
	for _, h := range f.ActiveHDAs() {
		if h.SamePartition(testHDA(t)) {
			t.Fatalf("active partition unchanged: %v", h)
		}
		if got := h.Subs[0].HW.PEs + h.Subs[1].HW.PEs; got != accel.Edge.PEs {
			t.Fatalf("Definition 1 broken after reassignment: %d PEs", got)
		}
	}

	waitAll(t, submitN(t, f, "mobile", "mobilenetv1", 4))
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 10 || st.Completed != 10 || st.Failed != 0 || st.Pending != 0 {
		t.Fatalf("conservation across reassignment: %+v", st)
	}
	if st.PEReassigns != 2 {
		t.Fatalf("fleet stats count %d reassigns, want 2", st.PEReassigns)
	}
	if cs := c.Status(); cs.Reassigns != 1 || cs.Migrations != 0 {
		t.Fatalf("controller status: %+v", cs)
	}
}

// TestLadderRungOrder: with reassignment and a sweeper both armed, a
// step the reassign rung acts on never reaches the sweep (the re-sweep
// runs only on a reassign-rung hold), and a sweep winner that
// re-slicing can reach is never migrated to.
func TestLadderRungOrder(t *testing.T) {
	cache := newTestCache()
	f, c := controllerFleet(t, cache, partition22(t), ControllerOptions{PEQuantum: 256, Confirm: 1},
		func(o *Options) { o.Serve.Elastic = true })

	waitAll(t, submitN(t, f, "mobile", "mobilenetv1", 6))
	d := step(t, f, c)
	if d.Action != ActionReassigned || d.Explored != 0 || d.Pruned != 0 {
		t.Fatalf("first step: %+v (want a reassignment without a re-sweep)", d)
	}
	for i := 0; i < 3; i++ {
		waitAll(t, submitN(t, f, "mobile", "mobilenetv1", 2))
		d = step(t, f, c)
		if d.Action != ActionHold || d.Explored+d.Pruned == 0 {
			t.Fatalf("step %d on the reassigned optimum: %+v (want a re-swept hold)", i+2, d)
		}
	}
	if f.Generation() != 0 || c.Migrations() != 0 {
		t.Fatalf("migrated to a winner re-slicing reaches: gen %d, migrations %d", f.Generation(), c.Migrations())
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestElasticStepDeterministic: the same submission trace with Step
// calls at the same points yields the identical decision sequence and
// final partition, run to run.
func TestElasticStepDeterministic(t *testing.T) {
	type outcome struct {
		decisions []Decision
		final     string
	}
	run := func() outcome {
		f, c := elasticFleet(t, testHDA(t), ControllerOptions{PEQuantum: 256})
		var o outcome
		o.decisions = append(o.decisions, step(t, f, c)) // no traffic
		waitAll(t, submitN(t, f, "mobile", "mobilenetv1", 5))
		o.decisions = append(o.decisions, step(t, f, c)) // reassign toward the mobilenet-optimal slice
		waitAll(t, submitN(t, f, "mobile", "mobilenetv1", 3))
		o.decisions = append(o.decisions, step(t, f, c)) // hold (already optimal in the neighbor set) or reassign again
		if _, err := f.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		o.final = f.ActiveHDAs()[0].String()
		return o
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("elastic steps diverged:\nrun1 %+v\nrun2 %+v", a, b)
	}
	if a.decisions[0].Action != ActionNoTraffic {
		t.Fatalf("first step saw traffic: %+v", a.decisions[0])
	}
	if a.decisions[1].Action != ActionReassigned {
		t.Fatalf("second step did not reassign: %+v", a.decisions[1])
	}
}

// TestElasticNoSweeperNeverMigrates: without a fleet sweeper the
// ladder has no migration rung — steps hold or reassign but the
// generation never moves, no matter how long the mix disagrees with
// the serving partition.
func TestElasticNoSweeperNeverMigrates(t *testing.T) {
	f, c := elasticFleet(t, testHDA(t), ControllerOptions{PEQuantum: 64, Confirm: 1})
	waitAll(t, submitN(t, f, "arvr", "unet", 6))
	for i := 0; i < 4; i++ {
		if d := step(t, f, c); d.Action == ActionMigrated {
			t.Fatalf("step %d migrated without a sweeper: %+v", i, d)
		}
	}
	if f.Generation() != 0 || c.Migrations() != 0 {
		t.Fatalf("sweeperless controller migrated: gen %d, migrations %d", f.Generation(), c.Migrations())
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestElasticControllerValidation: the preemption rung needs elastic
// engines; thresholds, the quantum and the priority bar must be
// non-negative; a sweeperless fleet needs a cheaper rung armed.
func TestElasticControllerValidation(t *testing.T) {
	f, err := Replicated(newTestCache(), testHDA(t), 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Drain(context.Background())
	if _, err := NewController(f, ControllerOptions{PEQuantum: 256, PreemptBelow: 1}); err == nil ||
		!strings.Contains(err.Error(), "Elastic") {
		t.Errorf("preemption rung on non-elastic engines accepted: %v", err)
	}
	for _, bad := range []ControllerOptions{
		{PEQuantum: 256, ReassignThreshold: -1},
		{PEQuantum: -1},
		{PEQuantum: 256, PreemptBelow: -1},
	} {
		if _, err := NewController(f, bad); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	if _, err := NewController(f, ControllerOptions{}); err == nil || !strings.Contains(err.Error(), "sweeper") {
		t.Errorf("ladder with no rung armed: %v", err)
	}
	if _, err := NewController(nil, ControllerOptions{PEQuantum: 256}); err == nil {
		t.Error("nil fleet accepted")
	}
	if _, err := NewController(f, ControllerOptions{PEQuantum: 256}); err != nil {
		t.Errorf("reassign-only controller on non-elastic engines rejected: %v", err)
	}
}

// TestLadderPreemptsOnSLARisk: new SLA violations since the previous
// step trigger rung 1, which preempts low-priority work and stops the
// climb; a step without new violations climbs on (here to a hold: no
// other rung is armed).
func TestLadderPreemptsOnSLARisk(t *testing.T) {
	f, c := elasticFleet(t, testHDA(t), ControllerOptions{PreemptBelow: 3, PreemptMax: 8})
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := f.Submit(serve.Request{Tenant: "batch", Model: "mobilenetv1", Priority: 0, ArrivalCycle: 0})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	// An unmeetable SLA on the urgent tenant is the violation.
	tk, err := f.Submit(serve.Request{Tenant: "urgent", Model: "mobilenetv1", Priority: 5, SLACycles: 1, ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, append(tickets, tk))

	d := step(t, f, c)
	if d.Action != ActionPreempted || d.Preempted != 4 || d.Reassigned != 0 {
		t.Fatalf("step on SLA risk: %+v (want the 4 low-priority requests preempted, nothing else)", d)
	}
	if d = step(t, f, c); d.Action != ActionHold || d.Preempted != 0 {
		t.Fatalf("step without new violations preempted: %+v", d)
	}
	if st := c.Status(); st.Preemptions != 4 || st.Steps != 2 {
		t.Fatalf("controller status: %+v", st)
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Preemptions != 4 || st.Resumes != 4 || st.Submitted != 5 || st.Completed != 5 {
		t.Fatalf("conservation across preempt/resume: %+v", st)
	}
	validateReplicas(t, f)
}

// TestLadderHTTPStatus: a reassign-armed ladder without a sweeper is
// visible at GET /v1/fleet/repartition, with its reassign and
// preemption counts.
func TestLadderHTTPStatus(t *testing.T) {
	f, c := elasticFleet(t, testHDA(t), ControllerOptions{PEQuantum: 256})
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)

	waitAll(t, submitN(t, f, "mobile", "mobilenetv1", 6))
	if d := step(t, f, c); d.Action != ActionReassigned {
		t.Fatalf("step on skewed mix: %+v", d)
	}
	var st ControllerStatus
	if code := doJSON(t, "GET", srv.URL+"/v1/fleet/repartition", "", &st); code != http.StatusOK {
		t.Fatalf("status endpoint: %d", code)
	}
	if st.PEQuantum != 256 || st.Reassigns != 1 || st.Preemptions != 0 || st.Migrations != 0 ||
		st.Last == nil || st.Last.Action != ActionReassigned || st.Last.Reassigned != 2 {
		t.Fatalf("status of a reassign-armed ladder: %+v", st)
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetReassignAllValidation: a partition-count mismatch is
// rejected before any replica is touched, so the fleet keeps serving
// its current slices.
func TestFleetReassignAllValidation(t *testing.T) {
	f, _ := elasticFleet(t, testHDA(t), ControllerOptions{PEQuantum: 256})
	before := f.ActiveHDAs()[0].String()
	if _, err := f.ReassignAll([]accel.Partition{
		{Style: dataflow.NVDLA, PEs: accel.Edge.PEs, BWGBps: accel.Edge.BWGBps},
	}); err == nil {
		t.Fatal("sub-count mismatch accepted")
	}
	if got := f.ActiveHDAs()[0].String(); got != before {
		t.Fatalf("failed reassignment mutated the fleet: %s -> %s", before, got)
	}

	n, err := f.ReassignAll([]accel.Partition{
		{Style: dataflow.NVDLA, PEs: 768, BWGBps: 12},
		{Style: dataflow.ShiDiannao, PEs: 256, BWGBps: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("reassigned %d replicas, want 2", n)
	}
	waitAll(t, submitN(t, f, "mobile", "mobilenetv1", 3))
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.PEReassigns != 2 || st.Completed != 3 {
		t.Fatalf("post-reassign stats: %+v", st)
	}
}

// TestReassignRefreshesETA: the first cost-aware dispatch after
// ReassignAll grows the replica's horizon by the model's best-case busy
// cycles on the re-sliced HDA, recomputed here from the cost cache, not
// by an estimate memoized on the old slices.
func TestReassignRefreshesETA(t *testing.T) {
	cache := newTestCache()
	opts := DefaultOptions()
	opts.Serve.Manual = true
	f, err := Replicated(cache, testHDA(t), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	model, err := dnn.ByName("mobilenetv1")
	if err != nil {
		t.Fatal(err)
	}
	dispatch := func() int64 {
		t.Helper()
		if _, err := f.Submit(serve.Request{Tenant: "a", Model: model.Name, ArrivalCycle: 0}); err != nil {
			t.Fatal(err)
		}
		f.Admit()
		return f.Stats().PerReplica[0].HorizonCycles
	}
	before := bestCaseCycles(cache, f.ActiveHDAs()[0], model)
	if h := dispatch(); h != before {
		t.Fatalf("first dispatch horizon %d, want the best-case cycles %d", h, before)
	}
	if _, err := f.ReassignAll([]accel.Partition{
		{Style: dataflow.NVDLA, PEs: 768, BWGBps: 12},
		{Style: dataflow.ShiDiannao, PEs: 256, BWGBps: 4},
	}); err != nil {
		t.Fatal(err)
	}
	after := bestCaseCycles(cache, f.ActiveHDAs()[0], model)
	if after == before {
		t.Fatalf("re-slicing left the best case at %d cycles; pick slices that move it", after)
	}
	if est, _ := f.Engine(0).Estimate(model); est != after {
		t.Errorf("engine estimate %d after reassignment, want %d", est, after)
	}
	if grew := dispatch() - before; grew != after {
		t.Errorf("post-reassign dispatch grew the horizon by %d, want the re-sliced estimate %d (old %d)", grew, after, before)
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// bestCaseCycles is the reference cost-aware estimate: every layer of m
// on its cheapest sub-accelerator of h, summed.
func bestCaseCycles(cache *maestro.Cache, h *accel.HDA, m *dnn.Model) int64 {
	var total int64
	for li := range m.Layers {
		best := int64(math.MaxInt64)
		for _, sub := range h.Subs {
			cyc, _ := cache.Cycles(m, sub.Style, sub.HW)
			best = min(best, cyc[li])
		}
		total += best
	}
	return total
}

// TestFleetPreemptBelow: fleet-wide preemption revokes only work below
// the priority threshold, the revoked requests resume and complete,
// and conservation holds across the preempt/resume cycle.
func TestFleetPreemptBelow(t *testing.T) {
	f, _ := elasticFleet(t, testHDA(t), ControllerOptions{PEQuantum: 256})

	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := f.Submit(serve.Request{Tenant: "batch", Model: "mobilenetv1", Priority: 0, ArrivalCycle: 0})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	tk, err := f.Submit(serve.Request{Tenant: "urgent", Model: "mobilenetv1", Priority: 5, ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	tickets = append(tickets, tk)
	waitAll(t, tickets)

	n := f.PreemptBelow(3, 8)
	if n != 4 {
		t.Fatalf("preempted %d requests, want the 4 low-priority ones", n)
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Preemptions != 4 || st.Resumes != 4 {
		t.Fatalf("preemption counters: %+v", st)
	}
	if st.Submitted != 5 || st.Completed != 5 || st.Failed != 0 || st.Pending != 0 {
		t.Fatalf("conservation across preempt/resume: %+v", st)
	}
}
