package fleet

// Tests of the fault-tolerance layer: deterministic fault injection,
// crash failover with the conservation invariant, the circuit
// breaker, overload shedding and stall detection.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
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
// on a mixed replica set (so segments are routed one at a time) with
// a FaultPlan crashing replica 0 mid-flight, one plain request and one
// fused chain segment queued on the dying replica, both failed over to
// the survivor. Returns the decision log and the
// deterministic stats slice for replay comparison.
func crashScenario(t *testing.T) ([]FaultDecision, consSnap) {
	t.Helper()
	const crashCycle = 1_000_000
	cache := newTestCache()
	plans := fleetPlans(t, cache, "mobilenetv2")
	opts := DefaultOptions()
	opts.Policy = RoundRobin // position-based routing: fully deterministic
	opts.Serve.Plans = plans // on the mixed set, one segment per admission
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

// midChainCrash stages a crash in the middle of a chain on identical
// replicas: a fused request goes whole to replica 0 (every active
// replica serves one partition, so all its segments are one
// admission), engines admit one request per batch, and the first
// segment's OnRequestDone hook submits the arrival that crashes
// replica 0. The global hook fires before the segment's own
// completion, so the crash reports segments 1.. lost before segment
// 0's completion reaches the chain — the ordering a live engine
// produces when a crash lands mid-batch. It returns the fleet, the
// fused ticket and the number of plan segments; the caller admits
// (manual) or waits (live). tweak, when set, adjusts the options last.
func midChainCrash(t *testing.T, manual bool, tweak func(*Options)) (*Fleet, *Ticket, int) {
	t.Helper()
	const crashCycle = 1_000_000
	cache := newTestCache()
	plans := fleetPlans(t, cache, "mobilenetv2")
	opts := DefaultOptions()
	opts.Policy = RoundRobin
	opts.Serve.Plans = plans
	opts.Serve.Manual = manual
	opts.Serve.MaxBatch = 1
	opts.Faults = mustPlan(t, FaultEvent{Cycle: crashCycle, Replica: 0, Kind: FaultCrash})
	var f *Fleet
	var once sync.Once
	opts.Serve.OnRequestDone = func(rec serve.Record) {
		if rec.Status != serve.StatusDone || !strings.HasPrefix(rec.Model, "mobilenetv2[") {
			return
		}
		once.Do(func() {
			if _, err := f.Submit(serve.Request{Tenant: "t", Model: "mobilenetv1", ArrivalCycle: crashCycle}); err != nil {
				t.Error(err)
			}
		})
	}
	if tweak != nil {
		tweak(&opts)
	}
	var err error
	if f, err = Replicated(cache, testHDA(t), 2, opts); err != nil {
		t.Fatal(err)
	}
	fused, err := f.Submit(serve.Request{Tenant: "ar", Model: "mobilenetv2", SLACycles: 1 << 50})
	if err != nil {
		t.Fatal(err)
	}
	if fused.Replica != 0 {
		t.Fatalf("fused request routed to %d, want replica 0", fused.Replica)
	}
	return f, fused, plans["mobilenetv2"].NumSegments()
}

// checkMidChainCrash: the chain resumed at its first lost segment on
// the survivor — segment 0 stays where it ran, the rest moved — every
// segment is counted once, and the hop is a cross-replica handoff.
func checkMidChainCrash(t *testing.T, f *Fleet, fused *Ticket, n int) {
	t.Helper()
	rec, err := fused.Wait(context.Background())
	if err != nil || rec.Status != serve.StatusDone || fused.Served() != 1 {
		t.Fatalf("fused request: %+v %v, served by %d (want survivor 1)", rec, err, fused.Served())
	}
	if len(rec.Segments) != n {
		t.Fatalf("%d segment records, want %d", len(rec.Segments), n)
	}
	for k, sr := range rec.Segments {
		want := 1
		if k == 0 {
			want = 0
		}
		if sr.Index != k || sr.Replica != want || sr.Err != "" {
			t.Errorf("segment %d: %+v, want index %d on replica %d", k, sr, k, want)
		}
		if k > 0 && sr.StartCycle < rec.Segments[k-1].FinishCycle {
			t.Errorf("segment %d starts %d before predecessor finish %d", k, sr.StartCycle, rec.Segments[k-1].FinishCycle)
		}
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sg := st.Segments
	if sg.FusedRequests != 1 || sg.FusedCompleted != 1 || sg.FusedLost != 0 ||
		sg.Segments != int64(n) || sg.SegmentsCompleted != int64(n) || sg.SegmentsLost != 0 {
		t.Errorf("fused ledger %+v: want one request of %d segments, each completed once", sg, n)
	}
	if st.Submitted != 2 || st.Completed != 2 || st.Failovers != 1 || st.Lost != int64(n-1) {
		t.Errorf("submitted %d, completed %d, failovers %d, lost %d; want 2, 2, 1, %d",
			st.Submitted, st.Completed, st.Failovers, st.Lost, n-1)
	}
	if st.CrossReplicaHandoffs != 1 {
		t.Errorf("%d cross-replica handoffs, want the one resume hop", st.CrossReplicaHandoffs)
	}
	var failover []string
	for _, d := range f.Decisions() {
		if d.Kind == "failover" {
			failover = append(failover, d.Detail)
		}
	}
	if len(failover) != 1 || !strings.Contains(failover[0], "segment 1 ") {
		t.Errorf("failover decisions %q, want one resuming segment 1", failover)
	}
}

// TestFaultChainResumesAtLostSegment: a crash mid-chain on identical
// replicas, on a manual fleet, resumes the chain at its first lost
// segment on the survivor.
func TestFaultChainResumesAtLostSegment(t *testing.T) {
	f, fused, n := midChainCrash(t, true, nil)
	f.Admit()
	checkMidChainCrash(t, f, fused, n)
}

// TestFaultChainFailsAfterRecovery: a chain waiting to resume whose
// crashed replica is recovered — and so folded into the fleet history —
// before the chain may resume, and which is then over its attempt
// budget, still ends counted: its failure lands in the history with
// the replica's other numbers, and conservation holds.
func TestFaultChainFailsAfterRecovery(t *testing.T) {
	f, fused, _ := midChainCrash(t, true, func(o *Options) {
		o.Health.MaxAttempts = 1
		o.Faults = mustPlan(t,
			FaultEvent{Cycle: 1_000_000, Replica: 0, Kind: FaultCrash},
			FaultEvent{Cycle: 1_000_000, Replica: 0, Kind: FaultRecover})
	})
	f.Admit()
	rec, err := fused.Wait(context.Background())
	if err != nil || rec.Status != serve.StatusFailed || !strings.Contains(rec.Err, "attempt budget") {
		t.Fatalf("fused request: %+v %v, want failed over its attempt budget", rec, err)
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 2 || st.Completed != 1 || st.Failed != 1 || st.Recoveries != 1 {
		t.Errorf("submitted %d, completed %d, failed %d, recoveries %d; want 2, 1, 1, 1",
			st.Submitted, st.Completed, st.Failed, st.Recoveries)
	}
	for _, ts := range st.Tenants {
		if ts.Tenant == "ar" && (ts.Submitted != 1 || ts.Failed != 1) {
			t.Errorf("tenant row %+v: want the fused request submitted and failed once", ts)
		}
	}
	if sg := st.Segments; sg.FusedRequests != 1 || sg.FusedFailed != 1 || sg.SegmentsCompleted != 1 {
		t.Errorf("fused ledger %+v: want one failed request with one completed segment", sg)
	}
}

// TestFaultChainLostWhole: a chain whose every segment is still queued
// when its replica crashes reports them all lost at once; the fleet
// counts the loss once and resumes the chain from segment 0 on the
// survivor, in one admission.
func TestFaultChainLostWhole(t *testing.T) {
	const crashCycle = 1_000_000
	cache := newTestCache()
	plans := fleetPlans(t, cache, "mobilenetv2")
	opts := DefaultOptions()
	opts.Policy = RoundRobin
	opts.Serve.Plans = plans
	opts.Serve.Manual = true
	opts.Faults = mustPlan(t, FaultEvent{Cycle: crashCycle, Replica: 0, Kind: FaultCrash})
	f, err := Replicated(cache, testHDA(t), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := f.Submit(serve.Request{Tenant: "ar", Model: "mobilenetv2"})
	if err != nil || fused.Replica != 0 {
		t.Fatalf("fused request on replica %d (%v), want 0", fused.Replica, err)
	}
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
			t.Errorf("segment %d ran on replica %d, want survivor 1", k, sr.Replica)
		}
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(plans["mobilenetv2"].NumSegments())
	if sg := st.Segments; sg.FusedRequests != 1 || sg.FusedCompleted != 1 || sg.Segments != n || sg.SegmentsCompleted != n {
		t.Errorf("fused ledger %+v: want one request of %d segments, completed once", sg, n)
	}
	if st.Submitted != 2 || st.Completed != 2 || st.Failovers != 1 || st.Lost != n || st.CrossReplicaHandoffs != 1 {
		t.Errorf("submitted %d, completed %d, failovers %d, lost %d, handoffs %d; want 2, 2, 1, %d, 1",
			st.Submitted, st.Completed, st.Failovers, st.Lost, st.CrossReplicaHandoffs, n)
	}
	survivor := f.Engine(0)
	if got := survivor.Stats().Submitted; got != 1 {
		t.Errorf("survivor engine counted %d requests, want the trigger only", got)
	}
	if got := survivor.Snapshot().Workload.NumInstances(); got != int(n)+1 {
		t.Errorf("survivor scheduled %d instances, want each of %d segments once plus the trigger", got, n)
	}
}

// TestFaultChainResumesLive is the live-fleet variant: engine drivers
// and the relay goroutine run the same lost-before-done ordering
// (make race covers it).
func TestFaultChainResumesLive(t *testing.T) {
	f, fused, n := midChainCrash(t, false, nil)
	checkMidChainCrash(t, f, fused, n)
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
		"1000:0:stall",   // missing factor
		"1000:0:stall:1", // factor must exceed 1
		"0:0:stall:NaN",  // not > 1, however compared
		"0:0:stall:+Inf",
		"0:0:stall:-Inf",
		"0:0:stall:1e300",   // overflows every cycle estimate
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

// TestStallCyclesSaturates: a stall scaling an estimate past int64
// saturates instead of wrapping to the cheapest ETA, so the stalled
// replica still draws no traffic.
func TestStallCyclesSaturates(t *testing.T) {
	if got := stallCycles(1000, 4); got != 4000 {
		t.Errorf("stallCycles(1000, 4) = %d", got)
	}
	if got := stallCycles(1<<40, 1<<30); got != math.MaxInt64 {
		t.Errorf("stallCycles(2^40, 2^30) = %d, want saturation", got)
	}
	opts := DefaultOptions()
	opts.Faults = mustPlan(t, FaultEvent{Cycle: 0, Replica: 0, Kind: FaultStall, Factor: 1e18})
	f := faultFleet(t, opts)
	for i := 0; i < 3; i++ {
		tk, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if tk.Replica != 1 {
			t.Fatalf("request %d routed to the saturated replica (%d)", i, tk.Replica)
		}
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseFaultPlan: the -faults flag crosses a trust boundary.
// Parsing must never panic; an accepted plan must round-trip through
// FormatFaultPlan to equal events, and every stall factor it carries
// must be finite and > 1.
func FuzzParseFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"1000000:0:crash,2000000:0:recover", // the digest golden's faults arm
		"2000:1:admit-fail:3, 1000:0:stall:4 ,3000:0:crash,5000:0:recover",
		"100:0:stall:2.5,200:1:admit-fail:3,300:0:crash,400:0:recover",
		"", "1000:0", "1000:0:explode", "-5:0:crash", "1000:-1:crash",
		"1000:0:stall", "1000:0:stall:1", "1000:0:admit-fail", "1000:0:admit-fail:0",
		"x:0:crash", "1000:y:crash",
		"0:0:stall:NaN", "0:0:stall:+Inf", "0:0:stall:1e300",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			return
		}
		for _, ev := range p.Events {
			if ev.Kind == FaultStall && (!(ev.Factor > 1) || math.IsInf(ev.Factor, 0)) {
				t.Fatalf("%q accepted stall factor %g", spec, ev.Factor)
			}
		}
		back, err := ParseFaultPlan(FormatFaultPlan(p))
		if err != nil {
			t.Fatalf("%q formats to %q, which does not parse: %v", spec, FormatFaultPlan(p), err)
		}
		if !reflect.DeepEqual(back.Events, p.Events) {
			t.Fatalf("%q: round trip diverged:\n%+v\n%+v", spec, p.Events, back.Events)
		}
	})
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
