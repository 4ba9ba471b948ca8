package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dse"
	"repro/internal/maestro"
	"repro/internal/serve"
)

// The controller tests run in the Edge 4/2 partition space over
// NVDLA + Shi-diannao, which has exactly two distinct EDP winners:
// mobilenet-dominated mixes pick NVDLA:768/Shi-diannao:256 and
// unet-dominated mixes pick NVDLA:512/Shi-diannao:512 (the workloads'
// EDP gaps are ~7% and ~11%, both past the 5% default threshold).
func partition31(t testing.TB) *accel.HDA {
	t.Helper()
	h, err := accel.New("p31", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 768, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 256, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func partition22(t testing.TB) *accel.HDA {
	t.Helper()
	return testHDA(t) // NVDLA:512 + Shi-diannao:512
}

// controllerFleet builds a 2-replica fleet on start with a sweeper
// over the two-winner space and an attached controller.
func controllerFleet(t testing.TB, cache *maestro.Cache, start *accel.HDA, copts ControllerOptions, fopts ...func(*Options)) (*Fleet, *Controller) {
	t.Helper()
	sp := dse.Space{
		Class:   accel.Edge,
		Styles:  []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao},
		PEUnits: 4, BWUnits: 2,
	}
	dopts := dse.DefaultOptions()
	dopts.BestOnly = true
	dopts.Prune = true
	sw, err := dse.NewSweeper(cache, sp, dopts)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Sweeper = sw
	for _, fo := range fopts {
		fo(&opts)
	}
	f, err := Replicated(cache, start, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(f, copts)
	if err != nil {
		t.Fatal(err)
	}
	return f, c
}

// submitN submits n requests of one model (explicit cycle-0 arrivals,
// deterministic dispatch) and returns the tickets without waiting.
func submitN(t testing.TB, f *Fleet, tenant, model string, n int) []*Ticket {
	t.Helper()
	out := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, err := f.Submit(serve.Request{Tenant: tenant, Model: model, ArrivalCycle: 0})
		if err != nil {
			t.Fatalf("submit %s #%d: %v", model, i, err)
		}
		out = append(out, tk)
	}
	return out
}

func waitAll(t testing.TB, tickets []*Ticket) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, tk := range tickets {
		rec, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("ticket %d (replica %d): %v", i, tk.Replica, err)
		}
		if rec.Status != serve.StatusDone {
			t.Fatalf("ticket %d: status %q err %q", i, rec.Status, rec.Err)
		}
	}
}

// TestControllerMigratesOnMixShift is the tentpole end-to-end path:
// a fleet serving the mobilenet-optimal partition sees its traffic
// shift to unet, and one controller step spawns the unet-optimal
// generation, drains the old one mid-flight, and hands over — with
// no request lost or double-served, and every count conserved in the
// fleet statistics.
func TestControllerMigratesOnMixShift(t *testing.T) {
	cache := newTestCache()
	var hookFires atomic.Int64
	f, c := controllerFleet(t, cache, partition31(t), ControllerOptions{Confirm: 1, Cooldown: 2},
		func(o *Options) {
			o.Serve.OnRequestDone = func(serve.Record) { hookFires.Add(1) }
		})

	// Phase 1: mobilenet traffic on the mobilenet-optimal partition —
	// the controller must hold.
	phase1 := submitN(t, f, "mobile", "mobilenetv1", 6)
	waitAll(t, phase1)
	d, err := c.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionHold {
		t.Fatalf("step on optimal partition: %+v", d)
	}
	if f.Generation() != 0 {
		t.Fatalf("generation moved on hold: %d", f.Generation())
	}

	// Phase 2: the mix shifts to unet. Submit WITHOUT waiting so the
	// migration drains engines with queued work in flight.
	phase2 := submitN(t, f, "arvr", "unet", 6)
	d, err = c.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionMigrated {
		t.Fatalf("step after mix shift: %+v", d)
	}
	if d.Improvement < 0.05 {
		t.Errorf("migration below threshold: %+v", d)
	}
	if f.Generation() != 1 || c.Migrations() != 1 {
		t.Fatalf("generation %d migrations %d after migration", f.Generation(), c.Migrations())
	}
	for _, h := range f.ActiveHDAs() {
		if h.String() != d.WinnerHDA {
			t.Fatalf("active partition %v, want the sweep winner %s", h, d.WinnerHDA)
		}
		if h.SamePartition(partition31(t)) {
			t.Fatalf("migration kept the old partition %v", h)
		}
	}

	// The in-flight phase-2 requests completed on the retired
	// generation (the drain inside Migrate finished them).
	waitAll(t, phase2)
	for _, tk := range phase2 {
		if tk.Replica > 1 {
			t.Errorf("pre-migration request served by new-generation replica %d", tk.Replica)
		}
	}

	// Phase 3: post-migration traffic lands on the new generation.
	phase3 := submitN(t, f, "arvr", "unet", 4)
	waitAll(t, phase3)
	for _, tk := range phase3 {
		if tk.Replica < 2 {
			t.Errorf("post-migration request served by retired replica %d", tk.Replica)
		}
	}

	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(phase1) + len(phase2) + len(phase3))
	if st.Submitted != total || st.Completed != total || st.Failed != 0 || st.Pending != 0 {
		t.Fatalf("conservation across migration: submitted %d completed %d failed %d pending %d, want %d",
			st.Submitted, st.Completed, st.Failed, st.Pending, total)
	}
	if got := hookFires.Load(); got != total {
		t.Fatalf("completion hook fired %d times for %d requests (lost or double-served)", got, total)
	}
	if st.Generation != 1 || st.RetiredReplicas != 2 || len(st.PerReplica) != 2 {
		t.Fatalf("generation accounting: %+v", st)
	}
	for _, rs := range st.PerReplica {
		if rs.Generation != 1 || rs.Retiring {
			t.Errorf("live replica %+v, want generation-1 active", rs)
		}
	}
	// Tenant aggregates must span the retired generation too.
	var mobile, arvr int64
	for _, ts := range st.Tenants {
		switch ts.Tenant {
		case "mobile":
			mobile = ts.Completed
		case "arvr":
			arvr = ts.Completed
		}
	}
	if mobile != 6 || arvr != 10 {
		t.Fatalf("tenant completions across generations: mobile %d arvr %d", mobile, arvr)
	}
}

// TestControllerDeterministicReplay: the same submission trace with
// controller steps at the same points produces the identical decision
// sequence and the identical final partition, run to run.
func TestControllerDeterministicReplay(t *testing.T) {
	type outcome struct {
		actions  []Action
		winners  []string
		assigned [][]int
		final    string
		gen      int
	}
	run := func() outcome {
		cache := newTestCache()
		f, c := controllerFleet(t, cache, partition31(t), ControllerOptions{Confirm: 2, Cooldown: 2})
		var o outcome
		step := func() {
			d, err := c.Step(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			o.actions = append(o.actions, d.Action)
			o.winners = append(o.winners, d.WinnerHDA)
		}
		record := func(tks []*Ticket) {
			ids := make([]int, len(tks))
			for i, tk := range tks {
				ids[i] = tk.Replica
			}
			o.assigned = append(o.assigned, ids)
		}
		record(submitN(t, f, "mobile", "mobilenetv1", 4))
		step()
		record(submitN(t, f, "arvr", "unet", 6))
		step() // confirming (streak 1 of 2)
		step() // migrated
		record(submitN(t, f, "arvr", "unet", 3))
		if _, err := f.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		o.final = f.ActiveHDAs()[0].String()
		o.gen = f.Generation()
		return o
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\nrun1 %+v\nrun2 %+v", a, b)
	}
	if a.gen != 1 || a.actions[len(a.actions)-1] != ActionMigrated {
		t.Fatalf("trace did not end in a migration: %+v", a)
	}
	if a.final != a.winners[len(a.winners)-1] {
		t.Fatalf("final partition %q is not the last sweep winner %q", a.final, a.winners[len(a.winners)-1])
	}
}

// TestControllerHysteresisNoFlapOnOscillation: an oscillating mix
// never agrees on one winner for Confirm consecutive probes, so the
// controller never migrates.
func TestControllerHysteresisNoFlapOnOscillation(t *testing.T) {
	cache := newTestCache()
	f, c := controllerFleet(t, cache, partition31(t), ControllerOptions{Confirm: 2, Cooldown: 2})
	for cycle := 0; cycle < 3; cycle++ {
		// Unet phase: candidate appears (streak 1)...
		waitAll(t, submitN(t, f, "arvr", "unet", 3))
		d, err := c.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d.Action != ActionConfirming {
			t.Fatalf("cycle %d unet phase: %+v", cycle, d)
		}
		f.ResetMix()
		// ...mobilenet phase: serving is optimal again, streak resets.
		waitAll(t, submitN(t, f, "mobile", "mobilenetv1", 3))
		d, err = c.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d.Action != ActionHold {
			t.Fatalf("cycle %d mobilenet phase: %+v", cycle, d)
		}
		f.ResetMix()
	}
	if c.Migrations() != 0 || f.Generation() != 0 {
		t.Fatalf("oscillating mix caused %d migrations (gen %d)", c.Migrations(), f.Generation())
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestControllerCooldownBlocksFlapBack: immediately after a migration
// the mix swings back, but the cooldown window refuses to act on the
// counter-candidate; only after the cooldown expires (and the
// candidate persists) may the fleet move again.
func TestControllerCooldownBlocksFlapBack(t *testing.T) {
	cache := newTestCache()
	f, c := controllerFleet(t, cache, partition31(t), ControllerOptions{Confirm: 1, Cooldown: 2})

	// Shift to unet: migrate to the unet optimum (generation 1).
	waitAll(t, submitN(t, f, "arvr", "unet", 4))
	d, err := c.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionMigrated || f.Generation() != 1 {
		t.Fatalf("initial migration: %+v (gen %d)", d, f.Generation())
	}

	// The mix swings straight back to mobilenet — a flap candidate
	// (it beats the serving unet partition by >5%), but the cooldown
	// must hold the fleet where it is.
	for i := 0; i < 2; i++ {
		waitAll(t, submitN(t, f, "mobile", "mobilenetv1", 3))
		d, err = c.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d.Action != ActionCooldown {
			t.Fatalf("cooldown step %d: %+v", i, d)
		}
		if f.Generation() != 1 {
			t.Fatalf("cooldown step %d migrated (gen %d)", i, f.Generation())
		}
	}

	// Cooldown expired and the candidate persists: now it may act —
	// the flap rate is bounded at one migration per Cooldown+Confirm
	// probes, never a step-to-step oscillation.
	d, err = c.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionMigrated || f.Generation() != 2 {
		t.Fatalf("post-cooldown step: %+v (gen %d)", d, f.Generation())
	}
	if c.Migrations() != 2 {
		t.Fatalf("migrations %d, want 2", c.Migrations())
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestControllerValidationAndStatus covers constructor errors, the
// status snapshot, and the no-traffic step.
func TestControllerValidationAndStatus(t *testing.T) {
	bare := testFleet(t, newTestCache(), 1, CostAware)
	if _, err := NewController(bare, ControllerOptions{}); err == nil || !strings.Contains(err.Error(), "sweeper") {
		t.Errorf("sweeper-less controller: %v", err)
	}
	if _, err := bare.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(nil, ControllerOptions{}); err == nil {
		t.Error("nil fleet accepted")
	}

	cache := newTestCache()
	f, c := controllerFleet(t, cache, partition22(t), ControllerOptions{Threshold: 0.03})
	if _, err := NewController(f, ControllerOptions{Threshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}

	st := c.Status()
	if st.State != "stable" || st.Steps != 0 || st.Threshold != 0.03 || st.Confirm != 2 || st.Cooldown != 3 {
		t.Fatalf("fresh status: %+v", st)
	}
	d, err := c.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionNoTraffic {
		t.Fatalf("step without traffic: %+v", d)
	}
	st = c.Status()
	if st.Steps != 1 || st.Last == nil || st.Last.Action != ActionNoTraffic {
		t.Fatalf("status after step: %+v", st)
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateDirect covers the Fleet.Migrate primitive without the
// controller: validation, the draining guard, and replica-count
// changes across a migration.
func TestMigrateDirect(t *testing.T) {
	cache := newTestCache()
	f := testFleet(t, cache, 2, CostAware)
	if err := f.Migrate(context.Background(), nil); err == nil {
		t.Error("empty migration accepted")
	}

	// Grow from 2 to 3 replicas on a new partition mid-service.
	waitAll(t, submitN(t, f, "a", "mobilenetv1", 4))
	p31 := partition31(t)
	if err := f.Migrate(context.Background(), []*accel.HDA{p31, p31, p31}); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 3 || f.Generation() != 1 {
		t.Fatalf("size %d gen %d after migration", f.Size(), f.Generation())
	}
	waitAll(t, submitN(t, f, "a", "mobilenetv1", 3))
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 7 || st.RetiredReplicas != 2 {
		t.Fatalf("post-migration stats: %+v", st)
	}

	// A draining fleet refuses migrations.
	if err := f.Migrate(context.Background(), []*accel.HDA{p31}); err != serve.ErrDraining {
		t.Errorf("migrate after drain: %v, want ErrDraining", err)
	}
}

// TestRepartitionHTTPStatus: the controller status endpoint reports
// 404 without a controller and the live state machine with one; the
// replica delegation surface follows a migration.
func TestRepartitionHTTPStatus(t *testing.T) {
	f := testFleet(t, newTestCache(), 1, CostAware)
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)
	if code := doJSON(t, "GET", srv.URL+"/v1/fleet/repartition", "", nil); code != http.StatusNotFound {
		t.Errorf("status without controller: %d, want 404", code)
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	cache := newTestCache()
	f2, c := controllerFleet(t, cache, partition31(t), ControllerOptions{Confirm: 1, Cooldown: 1})
	srv2 := httptest.NewServer(f2.Handler())
	t.Cleanup(srv2.Close)

	var st ControllerStatus
	if code := doJSON(t, "GET", srv2.URL+"/v1/fleet/repartition", "", &st); code != http.StatusOK || st.State != "stable" {
		t.Fatalf("controller status: %d %+v", code, st)
	}

	waitAll(t, submitN(t, f2, "arvr", "unet", 4))
	if d, err := c.Step(context.Background()); err != nil || d.Action != ActionMigrated {
		t.Fatalf("migration step: %+v %v", d, err)
	}
	if code := doJSON(t, "GET", srv2.URL+"/v1/fleet/repartition", "", &st); code != http.StatusOK || st.Migrations != 1 || st.State != "cooldown" {
		t.Fatalf("post-migration status: %d %+v", code, st)
	}
	// New-generation replicas (ids 2+) are reachable; retired ids 404.
	if code := doJSON(t, "GET", srv2.URL+"/v1/replicas/2/healthz", "", nil); code != http.StatusOK {
		t.Errorf("new-generation delegation: %d", code)
	}
	if code := doJSON(t, "GET", srv2.URL+"/v1/replicas/0/healthz", "", nil); code != http.StatusNotFound {
		t.Errorf("retired replica delegation: %d, want 404", code)
	}
	if _, err := f2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionStatusJSONRoundTrip: zero-valued comparison, per-rung
// and hysteresis fields must survive marshal/unmarshal — serving_value,
// winner_value, the rung counts, streak and cooldown_left carry no
// omitempty, so a
// zero reading is emitted as an explicit 0, not dropped, and a client
// can tell "comparison read 0" apart from a missing field.
func TestDecisionStatusJSONRoundTrip(t *testing.T) {
	d := Decision{Step: 3, Action: ActionHold, Generation: 1, Mix: "unet:1"}
	db, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var draw map[string]any
	if err := json.Unmarshal(db, &draw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"serving_value", "winner_value", "preempted", "reassigned", "streak", "cooldown_left"} {
		if _, ok := draw[key]; !ok {
			t.Errorf("decision JSON drops zero-valued %q: %s", key, db)
		}
	}
	var dback Decision
	if err := json.Unmarshal(db, &dback); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dback, d) {
		t.Errorf("decision round trip: %+v != %+v", dback, d)
	}

	st := ControllerStatus{State: "stable", Steps: 5, Threshold: 0.05, Confirm: 2, Cooldown: 3}
	sb, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var sraw map[string]any
	if err := json.Unmarshal(sb, &sraw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"preemptions", "reassigns", "pe_quantum", "streak", "cooldown_left"} {
		if _, ok := sraw[key]; !ok {
			t.Errorf("status JSON drops zero-valued %q: %s", key, sb)
		}
	}
	var sback ControllerStatus
	if err := json.Unmarshal(sb, &sback); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sback, st) {
		t.Errorf("status round trip: %+v != %+v", sback, st)
	}
}
