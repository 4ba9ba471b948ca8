package fleet

// Tests of the fault-tolerance layer: deterministic fault injection,
// crash failover with the conservation invariant, the circuit
// breaker, overload shedding and stall detection.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

func faultFleet(t *testing.T, opts Options) *Fleet {
	t.Helper()
	f, err := Replicated(newTestCache(), testHDA(t), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustPlan(t *testing.T, events ...FaultEvent) *FaultPlan {
	t.Helper()
	p, err := NewFaultPlan(events)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pending is an engine's queued-request count.
func pending(e *serve.Engine) int { return e.Load().Pending }

// consSnap is the deterministic slice of the final fleet statistics —
// the counters a replayed fault scenario must reproduce exactly.
type consSnap struct {
	Submitted, Completed, Failed, Lost         int64
	Shed, Failovers, Crashes, BreakerTrips     int64
	FailedReplicas                             int
	Fused, FusedCompleted, Segs, SegsCompleted int64
}

func snapOf(st Stats) consSnap {
	return consSnap{
		Submitted: st.Submitted, Completed: st.Completed, Failed: st.Failed, Lost: st.Lost,
		Shed: st.Shed, Failovers: st.Failovers, Crashes: st.Crashes, BreakerTrips: st.BreakerTrips,
		FailedReplicas: st.FailedReplicas,
		Fused:          st.Segments.FusedRequests, FusedCompleted: st.Segments.FusedCompleted,
		Segs: st.Segments.Segments, SegsCompleted: st.Segments.SegmentsCompleted,
	}
}

// crashScenario stages the acceptance scenario: a two-replica fleet
// on a mixed replica set (so the dispatcher fuses) with a FaultPlan crashing replica 0 mid-flight, one plain request
// and one fused chain segment queued on the dying replica, both
// failed over to the survivor. Returns the decision log and the
// deterministic stats slice for replay comparison.
func crashScenario(t *testing.T) ([]FaultDecision, consSnap) {
	t.Helper()
	const crashCycle = 1_000_000
	cache := newTestCache()
	plans := fleetPlans(t, cache, "mobilenetv2")
	opts := DefaultOptions()
	opts.Policy = RoundRobin // position-based routing: fully deterministic
	opts.Serve.Plans = plans // on the mixed set, the dispatcher fuses
	opts.Faults = mustPlan(t, FaultEvent{Cycle: crashCycle, Replica: 0, Kind: FaultCrash})
	opts.Serve.Manual = true // nothing admits unless the test says so
	f, err := New(cache, mixedHDAs(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	eng0 := f.replicas[0].engine

	// Round-robin position 0: the plain doomed request lands on
	// replica 0 and stays queued.
	doomed, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", SLACycles: 1 << 50})
	if err != nil {
		t.Fatal(err)
	}
	if doomed.Replica != 0 {
		t.Fatalf("doomed request routed to %d, want replica 0", doomed.Replica)
	}

	// Round-robin position 1: the fused chain's segment 0 lands on
	// replica 1, which admits it alone; releasing the chain routes
	// segment 1 to position 0, where it queues behind the doomed
	// request. The chain is now dying mid-chain.
	fused, err := f.Submit(serve.Request{Tenant: "ar", Model: "mobilenetv2", SLACycles: 1 << 50})
	if err != nil {
		t.Fatal(err)
	}
	if fused.Replica != 1 {
		t.Fatalf("fused segment 0 routed to %d, want replica 1", fused.Replica)
	}
	f.replicas[1].engine.Admit()
	f.mu.Lock()
	f.dispatchReadyLocked()
	f.mu.Unlock()
	if got := pending(eng0); got != 2 { // doomed + the chain's segment 1
		t.Fatalf("replica 0 holds %d queued, want 2", got)
	}

	// The trigger arrival advances the fault clock past the crash
	// cycle: replica 0 dies, both queued requests are extracted as
	// lost, and failover re-admits them on replica 1 under the
	// dispatch lock; Admit then serves the rest of the chain.
	trigger, err := f.Submit(serve.Request{
		Tenant: "t", Model: "mobilenetv1", ArrivalCycle: crashCycle, SLACycles: 1 << 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Admit()

	for name, tk := range map[string]*Ticket{"doomed": doomed, "fused": fused, "trigger": trigger} {
		rec, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != serve.StatusDone {
			t.Fatalf("%s: status %q err %q, want done", name, rec.Status, rec.Err)
		}
	}
	// No double-service and no lost work: the failed-over request was
	// served exactly once, by the survivor.
	if got := doomed.Served(); got != 1 {
		t.Fatalf("doomed request served by %d, want survivor 1", got)
	}
	rec, _ := doomed.Wait(context.Background())
	if rec.ArrivalCycle != crashCycle {
		t.Fatalf("re-admission arrival %d, want clamp to crash cycle %d", rec.ArrivalCycle, crashCycle)
	}
	frec, _ := fused.Wait(context.Background())
	if len(frec.Segments) != plans["mobilenetv2"].NumSegments() {
		t.Fatalf("chain finished %d segments, want %d", len(frec.Segments), plans["mobilenetv2"].NumSegments())
	}
	for k, sr := range frec.Segments[1:] {
		if sr.Replica != 1 {
			t.Fatalf("post-crash segment %d served by %d, want survivor 1", k+1, sr.Replica)
		}
	}

	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Conservation: every admission is completed or failed, nothing
	// pending, and the two extracted requests were each re-served
	// exactly once (Lost records the extractions, not a leak).
	if st.Submitted != st.Completed+st.Failed || st.Pending != 0 {
		t.Fatalf("conservation violated: submitted %d != completed %d + failed %d (pending %d)",
			st.Submitted, st.Completed, st.Failed, st.Pending)
	}
	if st.Failed != 0 || st.Lost != 2 || st.Crashes != 1 || st.Failovers != 2 {
		t.Fatalf("fault counters: %+v", snapOf(st))
	}
	if st.Segments.FusedCompleted != 1 || st.Segments.FusedFailed != 0 {
		t.Fatalf("fused conservation: %+v", st.Segments)
	}

	dec := f.Decisions()
	var kinds []string
	for _, d := range dec {
		kinds = append(kinds, d.Kind)
	}
	if want := []string{"crash", "failover", "failover"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("decision kinds %v, want %v", kinds, want)
	}
	if dec[0].Replica != 0 || dec[0].Cycle != crashCycle {
		t.Fatalf("crash decision %+v", dec[0])
	}
	return dec, snapOf(st)
}

// TestFaultCrashFailoverConservation is the acceptance scenario: a
// seeded FaultPlan kills a replica mid-flight (one plain request and
// one mid-chain fused segment queued on it), every request is still
// served exactly once, and the whole run — failover decisions and
// final statistics — replays bit-identically a second time.
func TestFaultCrashFailoverConservation(t *testing.T) {
	dec1, st1 := crashScenario(t)
	dec2, st2 := crashScenario(t)
	if !reflect.DeepEqual(dec1, dec2) {
		t.Errorf("decision logs differ across replays:\n  first: %+v\n second: %+v", dec1, dec2)
	}
	if st1 != st2 {
		t.Errorf("final stats differ across replays:\n  first: %+v\n second: %+v", st1, st2)
	}
}

// TestFaultEngineFusedChainCountsOnce: on identical replicas a fused
// request queued whole on a crashing replica is extracted with its
// chain and failed over; the survivor's engine chains it again, and
// the fleet's fused ledger counts the request once — the crashed
// engine's loss stays a per-engine reading.
func TestFaultEngineFusedChainCountsOnce(t *testing.T) {
	const crashCycle = 1_000_000
	cache := newTestCache()
	plans := fleetPlans(t, cache, "mobilenetv2")
	opts := DefaultOptions()
	opts.Policy = RoundRobin
	opts.Serve.Plans = plans
	opts.Faults = mustPlan(t, FaultEvent{Cycle: crashCycle, Replica: 0, Kind: FaultCrash})
	opts.Serve.Manual = true
	f, err := Replicated(cache, testHDA(t), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := f.Submit(serve.Request{Tenant: "ar", Model: "mobilenetv2"})
	if err != nil {
		t.Fatal(err)
	}
	if fused.Replica != 0 {
		t.Fatalf("fused request routed to %d, want replica 0", fused.Replica)
	}
	// The trigger arrival crashes replica 0 with the whole chain queued.
	if _, err := f.Submit(serve.Request{Tenant: "t", Model: "mobilenetv1", ArrivalCycle: crashCycle}); err != nil {
		t.Fatal(err)
	}
	f.Admit()
	rec, err := fused.Wait(context.Background())
	if err != nil || rec.Status != serve.StatusDone || fused.Served() != 1 {
		t.Fatalf("fused request: %+v %v, served by %d (want survivor 1)", rec, err, fused.Served())
	}
	for k, sr := range rec.Segments {
		if sr.Replica != 1 {
			t.Errorf("segment %d stamped replica %d, want survivor 1", k, sr.Replica)
		}
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(plans["mobilenetv2"].NumSegments())
	sg := st.Segments
	if sg.FusedRequests != 1 || sg.FusedCompleted != 1 || sg.FusedLost != 0 || sg.Segments != n || sg.SegmentsCompleted != n {
		t.Errorf("fused ledger %+v: want one request of %d segments, completed once", sg, n)
	}
	if st.Submitted != 2 || st.Completed != 2 || st.Failovers != 1 {
		t.Errorf("submitted %d, completed %d, failovers %d; want 2, 2, 1", st.Submitted, st.Completed, st.Failovers)
	}
	var engineLost int64
	for _, rs := range st.PerReplica {
		engineLost += rs.Engine.Segments.FusedLost
	}
	if engineLost != 1 {
		t.Errorf("engines report %d lost chains, want the crashed one", engineLost)
	}
}

// TestFaultAttemptBudget: with MaxAttempts 1 an orphaned request may
// not be re-admitted — it fails fast with a terminal fleet-side
// record, and the fleet aggregates still conserve (the synthesized
// failure counts in both Submitted and Failed).
func TestFaultAttemptBudget(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = RoundRobin
	opts.Health = HealthOptions{MaxAttempts: 1}
	opts.Faults = mustPlan(t, FaultEvent{Cycle: 1000, Replica: 0, Kind: FaultCrash})
	opts.Serve.Manual = true
	f := faultFleet(t, opts)

	doomed, err := f.Submit(serve.Request{Tenant: "dd", Model: "mobilenetv1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := pending(f.replicas[0].engine); got != 1 {
		t.Fatalf("replica 0 holds %d queued, want 1", got)
	}
	if _, err := f.Submit(serve.Request{Tenant: "t", Model: "mobilenetv1", ArrivalCycle: 1000}); err != nil {
		t.Fatal(err)
	}

	rec, err := doomed.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != serve.StatusFailed || !strings.Contains(rec.Err, "attempt budget") {
		t.Fatalf("over-budget request: status %q err %q", rec.Status, rec.Err)
	}
	if doomed.Served() != -1 {
		t.Fatalf("failed request reports serving replica %d", doomed.Served())
	}

	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != st.Completed+st.Failed || st.Failed != 1 || st.Failovers != 0 || st.Lost != 1 {
		t.Fatalf("budget-exhausted conservation: %+v", snapOf(st))
	}
	for _, ts := range st.Tenants {
		if ts.Tenant == "dd" && (ts.Submitted != 1 || ts.Failed != 1) {
			t.Fatalf("tenant dd window: %+v", ts)
		}
	}
	var sawFail bool
	for _, d := range f.Decisions() {
		if d.Kind == "failover-fail" {
			sawFail = true
		}
	}
	if !sawFail {
		t.Fatal("no failover-fail decision logged")
	}
}

// TestFaultBreakerLifecycle drives the circuit breaker through its
// full cycle with an injected admission-failure burst: open after the
// failure threshold, half-open probe after the probe window, re-open
// on a failed probe, close on a successful one — all deterministic in
// the dispatch sequence, with the victim taking no traffic while open.
func TestFaultBreakerLifecycle(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = RoundRobin
	opts.Health = HealthOptions{FailureThreshold: 2, ProbeAfter: 2}
	opts.Faults = mustPlan(t, FaultEvent{Cycle: 0, Replica: 0, Kind: FaultAdmitFail, Count: 3})
	f := faultFleet(t, opts)

	// Round-robin alternation tries replica 0 on every other dispatch:
	// failures 1 and 2 open the breaker, the window elapses, the probe
	// burns the last injected fault and re-opens, the next probe
	// succeeds and closes it.
	wantReplica := []int{1, 1, 1, 1, 1, 1, 0}
	var tickets []*Ticket
	for i, want := range wantReplica {
		tk, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: int64(i + 1)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if tk.Replica != want {
			t.Fatalf("submit %d routed to %d, want %d", i, tk.Replica, want)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		if rec, err := tk.Wait(context.Background()); err != nil || rec.Status != serve.StatusDone {
			t.Fatalf("request %d: %v %+v", i, err, rec)
		}
	}

	var kinds []string
	for _, d := range f.Decisions() {
		kinds = append(kinds, d.Kind)
	}
	want := []string{"admit-fail", "breaker-open", "breaker-probe", "breaker-reopen", "breaker-probe", "breaker-close"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("breaker decisions %v, want %v", kinds, want)
	}

	rep := f.Health()
	for _, rh := range rep.Replicas {
		if rh.Health != "healthy" {
			t.Errorf("replica %d health %q after close, want healthy", rh.Replica, rh.Health)
		}
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.BreakerTrips != 1 || st.Completed != int64(len(wantReplica)) {
		t.Fatalf("final: trips %d completed %d", st.BreakerTrips, st.Completed)
	}
}

// TestFaultShedFairness: with admission control on, an arrival whose
// best ETA already blows its SLA budget is shed with a Retry-After —
// but only when its tenant is at or above the fair share of
// outstanding work. A tenant below fair share is spared even when the
// backlog (built by someone else) makes its SLA unmeetable.
func TestFaultShedFairness(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = CostAware
	opts.Health = HealthOptions{ShedSLAFactor: 1}
	opts.Serve.Manual = true // keep the backlog outstanding until Admit
	f, err := Replicated(newTestCache(), testHDA(t), 1, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Tenant "heavy" builds the backlog: three expensive requests with
	// budgets loose enough to admit.
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := f.Submit(serve.Request{Tenant: "heavy", Model: "resnet50", ArrivalCycle: 0, SLACycles: 1 << 50})
		if err != nil {
			t.Fatalf("backlog %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}

	// A tight-SLA arrival from the flooding tenant is shed.
	_, err = f.Submit(serve.Request{Tenant: "heavy", Model: "resnet50", ArrivalCycle: 0, SLACycles: 1})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("flooding tenant not shed: %v", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("shed rejection is %T, want *ShedError", err)
	}
	if shed.Tenant != "heavy" || shed.RetryAfterSeconds < 1 || shed.ETACycles <= shed.BudgetCycles {
		t.Fatalf("shed error fields: %+v", shed)
	}

	// The same hopeless SLA from a tenant with zero outstanding work
	// is spared: it did not build the backlog.
	light, err := f.Submit(serve.Request{Tenant: "light", Model: "mobilenetv1", ArrivalCycle: 0, SLACycles: 1})
	if err != nil {
		t.Fatalf("below-fair-share tenant shed: %v", err)
	}
	tickets = append(tickets, light)

	f.Admit()
	for i, tk := range tickets {
		if rec, err := tk.Wait(context.Background()); err != nil || rec.Status != serve.StatusDone {
			t.Fatalf("request %d: %v %+v", i, err, rec)
		}
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != 1 || st.Completed != 4 {
		t.Fatalf("shed %d completed %d, want 1 and 4", st.Shed, st.Completed)
	}
	for _, ts := range st.Tenants {
		switch ts.Tenant {
		case "heavy":
			if ts.Shed != 1 || ts.Completed != 3 {
				t.Errorf("heavy tenant: %+v", ts)
			}
		case "light":
			if ts.Shed != 0 || ts.Completed != 1 {
				t.Errorf("light tenant: %+v", ts)
			}
		}
	}
	var sawShed bool
	for _, d := range f.Decisions() {
		if d.Kind == "shed" {
			sawShed = true
		}
	}
	if !sawShed {
		t.Fatal("no shed decision logged")
	}
}

// TestFaultStallDiversion: an injected stall is a gray failure — the
// replica stays up, but cost-aware routing sees its estimates scaled
// and drains traffic to the healthy replica.
func TestFaultStallDiversion(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = CostAware
	opts.Faults = mustPlan(t, FaultEvent{Cycle: 0, Replica: 0, Kind: FaultStall, Factor: 50})
	f := faultFleet(t, opts)

	for i := 0; i < 3; i++ {
		tk, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if tk.Replica != 1 {
			t.Fatalf("request %d routed to stalled replica (%d)", i, tk.Replica)
		}
	}
	rep := f.Health()
	if len(rep.Replicas) != 2 || rep.Replicas[0].StallFactor != 50 {
		t.Fatalf("health report stall factor: %+v", rep.Replicas)
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range st.PerReplica {
		if rs.Replica == 0 && rs.StallFactor != 50 {
			t.Errorf("replica 0 stats stall factor %g, want 50", rs.StallFactor)
		}
	}
}

// TestStallDetectionDegraded: with StallFactor detection on, a
// replica whose work horizon towers over the fleet minimum reports
// "degraded" on the health surface — no injected fault needed, the
// signal comes from the dispatcher's own ledger.
func TestStallDetectionDegraded(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = CostAware
	opts.Health = HealthOptions{StallFactor: 2}
	f := faultFleet(t, opts)

	// An expensive model on replica 0, a cheap one on replica 1: the
	// horizons diverge far past the 2x detection threshold.
	heavy, err := f.Submit(serve.Request{Tenant: "a", Model: "resnet50", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	light, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Replica != 0 || light.Replica != 1 {
		t.Fatalf("routing: heavy %d light %d, want 0 and 1", heavy.Replica, light.Replica)
	}

	rep := f.Health()
	if rep.Replicas[0].Health != "degraded" {
		t.Errorf("towering-horizon replica health %q, want degraded", rep.Replicas[0].Health)
	}
	if rep.Replicas[1].Health != "healthy" {
		t.Errorf("baseline replica health %q, want healthy", rep.Replicas[1].Health)
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFaultRecovery: a crashed replica is rebuilt by a scheduled
// recover event — same id, fresh engine, prior completions folded
// into the aggregates — and rejoins the dispatch rotation.
func TestFaultRecovery(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = RoundRobin
	opts.Faults = mustPlan(t,
		FaultEvent{Cycle: 1000, Replica: 0, Kind: FaultCrash},
		FaultEvent{Cycle: 2000, Replica: 0, Kind: FaultRecover},
	)
	f := faultFleet(t, opts)

	// Pre-crash work on both replicas, completed before the crash so
	// the fold has something to preserve.
	for i := 0; i < 2; i++ {
		tk, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 0})
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := tk.Wait(context.Background()); err != nil || rec.Status != serve.StatusDone {
			t.Fatalf("pre-crash %d: %v %+v", i, err, rec)
		}
	}

	// Crash fires: replica 0 (idle, nothing queued) leaves the set.
	if _, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 1000}); err != nil {
		t.Fatal(err)
	}
	rep := f.Health()
	if len(rep.Replicas) != 1 || len(rep.Failed) != 1 || rep.Failed[0].Health != "crashed" {
		t.Fatalf("post-crash health: %+v", rep)
	}

	// Recover fires before this submission routes: replica 0 is rebuilt
	// and the round-robin rotation (at position 1 of the now-two-strong
	// set, where the rebuilt engine sits) hands it the request at once.
	tk, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Replica != 0 {
		t.Fatalf("post-recovery rotation skipped the rebuilt replica: %d", tk.Replica)
	}
	if _, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 2001}); err != nil {
		t.Fatal(err)
	}
	rep = f.Health()
	if len(rep.Replicas) != 2 || len(rep.Failed) != 0 {
		t.Fatalf("post-recovery health: %+v", rep)
	}
	for _, rh := range rep.Replicas {
		if rh.Health != "healthy" {
			t.Errorf("replica %d health %q after recovery", rh.Replica, rh.Health)
		}
	}

	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The crashed engine's pre-crash completion survived the rebuild.
	if st.Submitted != 5 || st.Completed != 5 || st.Crashes != 1 || st.Recoveries != 1 || st.FailedReplicas != 0 {
		t.Fatalf("final stats after recovery: %+v", snapOf(st))
	}
}

// TestFaultNoReplicas: when the last replica crashes, submissions are
// refused with ErrNoReplicas (HTTP 503) instead of hanging, and the
// fleet still drains cleanly.
func TestFaultNoReplicas(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = RoundRobin
	opts.Faults = mustPlan(t, FaultEvent{Cycle: 100, Replica: 0, Kind: FaultCrash})
	f, err := Replicated(newTestCache(), testHDA(t), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := tk.Wait(context.Background()); err != nil || rec.Status != serve.StatusDone {
		t.Fatalf("pre-crash request: %v %+v", err, rec)
	}

	// The trigger submission itself finds no survivor to land on.
	if _, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 100}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("crash-trigger submit: %v, want ErrNoReplicas", err)
	}
	if _, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 101}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("post-crash submit: %v, want ErrNoReplicas", err)
	}

	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.Crashes != 1 || st.FailedReplicas != 1 || st.Replicas != 0 {
		t.Fatalf("all-crashed stats: %+v", snapOf(st))
	}
}

// TestParseFaultPlan covers the -faults flag syntax and validation.
func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("2000:1:admit-fail:3, 1000:0:stall:4 ,3000:0:crash,5000:0:recover")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 4 {
		t.Fatalf("%d events, want 4", len(p.Events))
	}
	// Sorted by cycle regardless of spec order.
	want := []FaultEvent{
		{Cycle: 1000, Replica: 0, Kind: FaultStall, Factor: 4},
		{Cycle: 2000, Replica: 1, Kind: FaultAdmitFail, Count: 3},
		{Cycle: 3000, Replica: 0, Kind: FaultCrash},
		{Cycle: 5000, Replica: 0, Kind: FaultRecover},
	}
	if !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("events %+v, want %+v", p.Events, want)
	}

	for _, bad := range []string{
		"",
		"1000:0",
		"1000:0:explode",
		"-5:0:crash",
		"1000:-1:crash",
		"1000:0:stall",      // missing factor
		"1000:0:stall:1",    // factor must exceed 1
		"1000:0:admit-fail", // missing count
		"1000:0:admit-fail:0",
		"x:0:crash",
		"1000:y:crash",
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q accepted, want error", bad)
		}
	}
}

// TestExportFormatFaultPlan: ExportFaultPlan keeps exactly the
// injectable decisions (derived ones — failovers, breaker transitions,
// sheds — are consequences of the schedule, not part of it) and
// FormatFaultPlan round-trips with ParseFaultPlan.
func TestExportFormatFaultPlan(t *testing.T) {
	decs := []FaultDecision{
		{Seq: 0, Cycle: 100, Replica: 0, Kind: "stall", Factor: 2.5},
		{Seq: 1, Cycle: 150, Replica: 1, Kind: "failover"}, // derived: skipped
		{Seq: 2, Cycle: 200, Replica: 1, Kind: "admit-fail", Count: 3},
		{Seq: 3, Cycle: 250, Replica: 0, Kind: "breaker-open"}, // derived: skipped
		{Seq: 4, Cycle: 300, Replica: 0, Kind: "crash"},
		{Seq: 5, Cycle: 400, Replica: 0, Kind: "recover"},
	}
	p, err := ExportFaultPlan(decs)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 4 {
		t.Fatalf("exported %d events, want 4: %+v", len(p.Events), p.Events)
	}
	spec := FormatFaultPlan(p)
	if spec != "100:0:stall:2.5,200:1:admit-fail:3,300:0:crash,400:0:recover" {
		t.Fatalf("formatted plan %q", spec)
	}
	back, err := ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Fatalf("format/parse round trip diverged:\n%+v\n%+v", back, p)
	}

	// A log of only derived decisions exports no plan at all.
	none, err := ExportFaultPlan([]FaultDecision{{Cycle: 5, Kind: "shed"}})
	if err != nil || none != nil {
		t.Fatalf("derived-only log: (%v, %v), want (nil, nil)", none, err)
	}
}
