package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/serve"
)

// TestQueueFullNeverTripsBreaker: the queue cap is per tenant, so one
// tenant's flood is that tenant's backpressure, not a replica failure.
// On a manual 2-replica cost-aware fleet with MaxQueue 4, a tenant
// that submits 20 requests gets 8 admitted and 12 ErrQueueFull (never
// ErrNoReplicas), no breaker opens, and a second tenant is still
// served.
func TestQueueFullNeverTripsBreaker(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = CostAware
	opts.Serve.MaxQueue = 4
	opts.Serve.Manual = true // nothing admits, so the flood's queues stay full
	f := faultFleet(t, opts)

	admitted := 0
	for i := 0; i < 20; i++ {
		_, err := f.Submit(serve.Request{Tenant: "flood", Model: "mobilenetv1", SLACycles: 1 << 50})
		switch {
		case err == nil:
			admitted++
		case !errors.Is(err, serve.ErrQueueFull):
			t.Fatalf("flood submission %d: %v, want nil or %v", i, err, serve.ErrQueueFull)
		}
	}
	if admitted != 8 {
		t.Errorf("flood admitted %d, want 8 (4 per replica)", admitted)
	}
	if _, err := f.Submit(serve.Request{Tenant: "quiet", Model: "mobilenetv1", SLACycles: 1 << 50}); err != nil {
		t.Fatalf("second tenant refused: %v", err)
	}
	if st := f.Stats(); st.BreakerTrips != 0 {
		t.Errorf("breaker trips %d, want 0", st.BreakerTrips)
	}
	for _, e := range f.Decisions() {
		if e.Kind == "breaker-open" {
			t.Errorf("decision log: %+v", e)
		}
	}
	if st, err := f.Drain(context.Background()); err != nil || st.Completed != 9 {
		t.Fatalf("drain: completed %d err %v, want 9", st.Completed, err)
	}
}

// TestQueueFullLeavesProbeHalfOpen: a half-open probe that meets a full
// tenant queue counts as neither a success nor a failure. The replica
// stays half-open, the request goes to the next replica, and the next
// admission the probe takes closes the breaker.
func TestQueueFullLeavesProbeHalfOpen(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = RoundRobin
	opts.Health = HealthOptions{FailureThreshold: 1, ProbeAfter: 1}
	opts.Faults = mustPlan(t, FaultEvent{Cycle: 10, Replica: 0, Kind: FaultAdmitFail, Count: 1})
	opts.Serve.MaxQueue = 1
	opts.Serve.Manual = true
	f := faultFleet(t, opts)

	submit := func(tenant string, cycle int64) *Ticket {
		t.Helper()
		tk, err := f.Submit(serve.Request{Tenant: tenant, Model: "mobilenetv1", ArrivalCycle: cycle, SLACycles: 1 << 50})
		if err != nil {
			t.Fatalf("submit %s@%d: %v", tenant, cycle, err)
		}
		return tk
	}
	kinds := func() (out []string) {
		for _, e := range f.Decisions() {
			out = append(out, e.Kind)
		}
		return out
	}
	health0 := func() string {
		for _, rs := range f.Stats().PerReplica {
			if rs.Replica == 0 {
				return rs.Health
			}
		}
		return ""
	}

	if tk := submit("a", 0); tk.Replica != 0 { // fills tenant a's queue on replica 0
		t.Fatalf("first request routed to %d, want 0", tk.Replica)
	}
	submit("b", 10)                             // fires the injected fault; round robin picks replica 1
	if tk := submit("c", 10); tk.Replica != 1 { // the fault opens replica 0's breaker
		t.Fatalf("request at the fault routed to %d, want 1", tk.Replica)
	}
	if got, want := kinds(), []string{"admit-fail", "breaker-open"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions %v, want %v", got, want)
	}
	if tk := submit("a", 11); tk.Replica != 1 { // the probe meets a's full queue
		t.Fatalf("probe-time request routed to %d, want 1", tk.Replica)
	}
	if got, want := kinds(), []string{"admit-fail", "breaker-open", "breaker-probe"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions %v, want %v", got, want)
	}
	if h := health0(); h != "breaker-half-open" {
		t.Fatalf("replica 0 health %q after a queue-full probe, want breaker-half-open", h)
	}
	if tk := submit("d", 12); tk.Replica != 0 { // the probe admits and closes
		t.Fatalf("next request routed to %d, want the probe replica 0", tk.Replica)
	}
	if got, want := kinds(), []string{"admit-fail", "breaker-open", "breaker-probe", "breaker-close"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions %v, want %v", got, want)
	}
	if st, err := f.Drain(context.Background()); err != nil || st.BreakerTrips != 1 || st.Completed != 5 {
		t.Fatalf("drain: trips %d completed %d err %v, want 1 and 5", st.BreakerTrips, st.Completed, err)
	}
}

// TestDrainingNeverTripsBreaker: a draining engine is a fleet-side
// state, not a replica fault. With replica 0 quiesced, every
// submission goes to replica 1 and no breaker opens.
func TestDrainingNeverTripsBreaker(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = CostAware
	opts.Serve.Manual = true
	f := faultFleet(t, opts)
	f.Engine(0).Quiesce()

	for i := 0; i < 6; i++ {
		tk, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", SLACycles: 1 << 50})
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if tk.Replica != 1 {
			t.Errorf("submission %d routed to %d, want 1", i, tk.Replica)
		}
	}
	if st := f.Stats(); st.BreakerTrips != 0 {
		t.Errorf("breaker trips %d, want 0", st.BreakerTrips)
	}
	for _, e := range f.Decisions() {
		if e.Kind == "breaker-open" {
			t.Errorf("decision log: %+v", e)
		}
	}
}

// TestNoFaultsNoTrips: with no fault plan and no controller, random
// multi-tenant submission sequences on a manual fleet never open a
// breaker and never run out of replicas, whatever the policy, the
// queue cap and where the Admit calls fall. Queue-full refusals are
// the only error allowed.
func TestNoFaultsNoTrips(t *testing.T) {
	models := []string{"mobilenetv1", "mobilenetv2", "brq-handpose"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := DefaultOptions()
		opts.Policy = Policy(rng.Intn(int(CostAware) + 1))
		opts.Serve.MaxQueue = 1 + rng.Intn(4)
		opts.Serve.Manual = true
		f := faultFleet(t, opts)
		tenants := 1 + rng.Intn(4)
		var cycle int64
		for i := 0; i < 40; i++ {
			cycle += int64(rng.Intn(200_000))
			req := serve.Request{
				Tenant:       fmt.Sprintf("t%d", rng.Intn(tenants)),
				Model:        models[rng.Intn(len(models))],
				ArrivalCycle: cycle,
				SLACycles:    1 << 50,
			}
			if _, err := f.Submit(req); err != nil && !errors.Is(err, serve.ErrQueueFull) {
				t.Fatalf("seed %d submission %d (%s, %s): %v", seed, i, opts.Policy, req.Tenant, err)
			}
			if rng.Intn(5) == 0 {
				f.Admit()
			}
		}
		st, err := f.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.BreakerTrips != 0 {
			t.Errorf("seed %d (%s, MaxQueue %d): breaker trips %d, want 0", seed, opts.Policy, opts.Serve.MaxQueue, st.BreakerTrips)
		}
	}
}
