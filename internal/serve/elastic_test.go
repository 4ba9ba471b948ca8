package serve

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/maestro"
)

func elasticEngine(t testing.TB) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Elastic = true
	e, err := New(maestro.NewCache(energy.Default28nm()), testHDA(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// waitIdle blocks until the engine has no pending work (the scheduling
// loop has drained every queue), without stopping admissions.
func waitIdle(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if e.Load().Pending == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("engine did not go idle")
}

// TestEnginePreemptResume walks one request through the full preempt →
// re-queue → resume cycle and checks the record, the counters and the
// committed schedule all line up.
func TestEnginePreemptResume(t *testing.T) {
	e := elasticEngine(t)
	ticket, err := e.Submit(Request{Tenant: "batch", Model: "resnet50", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ticket.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusDone {
		t.Fatalf("status %q, want done (err %q)", first.Status, first.Err)
	}

	if n := e.Preempt(1, 1); n != 1 {
		t.Fatalf("Preempt revoked %d placements, want 1", n)
	}
	// The ticket's record is immutable after done: the revision lives
	// in the engine's table.
	if first.Status != StatusDone {
		t.Fatalf("ticket record mutated by preemption: %+v", first)
	}

	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Preemptions != 1 || st.Resumes != 1 {
		t.Fatalf("counters: %d preemptions, %d resumes, want 1/1", st.Preemptions, st.Resumes)
	}
	if st.Submitted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("conservation broken after preempt/resume: %+v", st)
	}
	rec, ok := e.Lookup(first.ID)
	if !ok {
		t.Fatal("record evicted")
	}
	if rec.Status != StatusDone {
		t.Fatalf("resumed record status %q (err %q), want done", rec.Status, rec.Err)
	}
	// Preemption at the floor (0) rolled the whole instance back, so
	// the resumed placement re-runs every layer on the same slices:
	// busy and energy must match the original placement exactly.
	if rec.BusyCycles != first.BusyCycles {
		t.Errorf("resumed busy %d != original %d", rec.BusyCycles, first.BusyCycles)
	}
	if err := e.Snapshot().Validate(); err != nil {
		t.Errorf("schedule invalid after preempt/resume: %v", err)
	}
	snap := e.Snapshot()
	layers := 0
	for range snap.Assignments {
		layers++
	}
	if want := snap.Workload.Instances[0].Model.NumLayers(); layers != want {
		t.Errorf("schedule holds %d layer assignments, want %d (no double-run, no loss)", layers, want)
	}
}

// TestEnginePreemptPriorityFilter checks the victim filter: only
// requests with priority strictly below the threshold are revocable,
// and the latest-finishing victim goes first.
func TestEnginePreemptPriorityFilter(t *testing.T) {
	e := elasticEngine(t)
	high, err := e.Submit(Request{Tenant: "arvr", Model: "brq-handpose", Priority: 2, ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	low, err := e.Submit(Request{Tenant: "batch", Model: "mobilenetv1", Priority: 0, ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := high.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := low.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	if n := e.Preempt(2, 8); n != 1 {
		t.Fatalf("Preempt revoked %d placements, want exactly the low-priority one", n)
	}
	rec, _ := e.Lookup(high.ID)
	if rec.Status != StatusDone {
		t.Errorf("high-priority record disturbed: %q", rec.Status)
	}
	if st, err := e.Drain(context.Background()); err != nil || st.Completed != 2 {
		t.Fatalf("drain: %v, stats %+v", err, st)
	}
	if err := e.Snapshot().Validate(); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

// TestEnginePreemptNoCandidates: an engine with elasticity off, or
// with only exhausted candidates, preempts nothing.
func TestEnginePreemptNoCandidates(t *testing.T) {
	plain := testEngine(t)
	tk, err := plain.Submit(Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := plain.Preempt(10, 8); n != 0 {
		t.Fatalf("non-elastic engine preempted %d", n)
	}
	if _, err := plain.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	e := elasticEngine(t)
	if n := e.Preempt(10, 8); n != 0 {
		t.Fatalf("empty engine preempted %d", n)
	}
	if _, err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineReassign swaps the slice sizes mid-stream and checks the
// engine keeps serving on the re-sized HDA.
func TestEngineReassign(t *testing.T) {
	e := elasticEngine(t)
	tk, err := e.Submit(Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	if err := e.Reassign([]accel.Partition{
		{Style: dataflow.NVDLA, PEs: 768, BWGBps: 12},
		{Style: dataflow.ShiDiannao, PEs: 256, BWGBps: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.HDA().Subs[0].HW.PEs; got != 768 {
		t.Fatalf("HDA not swapped: sub 0 has %d PEs, want 768", got)
	}
	if err := e.Reassign([]accel.Partition{{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8}}); err == nil {
		t.Fatal("sub-count change accepted; want migration-required error")
	}

	tk2, err := e.Submit(Request{Tenant: "a", Model: "mobilenetv2", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tk2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusDone {
		t.Fatalf("post-reassign request: %q (%s)", rec.Status, rec.Err)
	}
	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.PEReassigns != 1 {
		t.Errorf("PEReassigns %d, want 1", st.PEReassigns)
	}
	if err := e.Snapshot().Validate(); err != nil {
		t.Errorf("schedule invalid after reassign: %v", err)
	}
}

// TestElasticConservationSeeded is the engine-level preemption
// conservation property test: randomized (seeded) preempt points and
// slice reassignments across a multi-tenant stream must keep
// Submitted == Completed + Failed after a drain, fire each request's
// completion hook exactly once, and leave a valid committed schedule
// (no double-run layers, non-negative ledger — Validate checks both).
func TestElasticConservationSeeded(t *testing.T) {
	models := []string{"mobilenetv1", "mobilenetv2", "brq-handpose", "ssd-mobilenetv1"}
	parts := [][]accel.Partition{
		{{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8}, {Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8}},
		{{Style: dataflow.NVDLA, PEs: 768, BWGBps: 12}, {Style: dataflow.ShiDiannao, PEs: 256, BWGBps: 4}},
		{{Style: dataflow.NVDLA, PEs: 256, BWGBps: 4}, {Style: dataflow.ShiDiannao, PEs: 768, BWGBps: 12}},
	}
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		opts := DefaultOptions()
		opts.Elastic = true
		var hooks atomic.Int64
		opts.OnRequestDone = func(Record) { hooks.Add(1) }
		e, err := New(maestro.NewCache(energy.Default28nm()), testHDA(t), opts)
		if err != nil {
			t.Fatal(err)
		}

		submitted := 0
		for i := 0; i < 30; i++ {
			_, err := e.Submit(Request{
				Tenant:       []string{"arvr", "mlperf", "batch"}[i%3],
				Model:        models[rng.Intn(len(models))],
				Priority:     rng.Intn(3),
				ArrivalCycle: int64(i) * 500_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			submitted++
			switch rng.Intn(5) {
			case 0:
				e.Preempt(1+rng.Intn(3), 1+rng.Intn(2))
			case 1:
				if err := e.Reassign(parts[rng.Intn(len(parts))]); err != nil {
					t.Fatalf("seed %d: reassign: %v", seed, err)
				}
			}
		}
		waitIdle(t, e)
		e.Preempt(3, 4) // final sweep: preempt whatever is still revocable

		st, err := e.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Submitted != int64(submitted) {
			t.Fatalf("seed %d: submitted %d != %d", seed, st.Submitted, submitted)
		}
		if st.Submitted != st.Completed+st.Failed {
			t.Fatalf("seed %d: conservation broken: submitted %d != completed %d + failed %d (preempt %d resume %d)",
				seed, st.Submitted, st.Completed, st.Failed, st.Preemptions, st.Resumes)
		}
		if got := hooks.Load(); got != int64(submitted) {
			t.Fatalf("seed %d: completion hooks fired %d times for %d requests (must be exactly once each)",
				seed, got, submitted)
		}
		if st.Preemptions > 0 && st.Resumes+st.Failed == 0 {
			t.Fatalf("seed %d: %d preemptions but no resumption outcome", seed, st.Preemptions)
		}
		if err := e.Snapshot().Validate(); err != nil {
			t.Fatalf("seed %d: schedule invalid: %v", seed, err)
		}
	}
}

// TestElasticRaceHammer runs concurrent submit × preempt × reassign ×
// stats against one elastic engine — the `make race` workout for the
// elastic locking (schedMu before mu everywhere).
func TestElasticRaceHammer(t *testing.T) {
	e := elasticEngine(t)
	const perWorker = 12
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := []string{"arvr", "mlperf", "batch"}[w]
			for i := 0; i < perWorker; i++ {
				_, err := e.Submit(Request{
					Tenant:       tenant,
					Model:        []string{"mobilenetv1", "mobilenetv2"}[i%2],
					Priority:     i % 3,
					ArrivalCycle: int64(i) * 400_000,
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			e.Preempt(2, 2)
			e.Stats()
		}
	}()
	go func() {
		defer wg.Done()
		flip := [][]accel.Partition{
			{{Style: dataflow.NVDLA, PEs: 640, BWGBps: 10}, {Style: dataflow.ShiDiannao, PEs: 384, BWGBps: 6}},
			{{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8}, {Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8}},
		}
		for i := 0; i < 10; i++ {
			if err := e.Reassign(flip[i%2]); err != nil {
				t.Error(err)
				return
			}
			e.Load()
		}
	}()
	wg.Wait()

	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != st.Completed+st.Failed {
		t.Fatalf("conservation broken under concurrency: %+v", st)
	}
	if err := e.Snapshot().Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
}

// TestStatsMatchSnapshot: Stats reads the makespan and per-sub busy
// cycles from the incremental schedule instead of a Snapshot; its
// makespan and utilization must equal the Snapshot-derived values
// after admissions, a preempt, a reassign and a resume.
func TestStatsMatchSnapshot(t *testing.T) {
	opts := DefaultOptions()
	opts.Manual = true
	opts.Elastic = true
	e, err := New(newTestCache(), testHDA(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		st, snap := e.Stats(), e.Snapshot()
		if st.MakespanCycles != snap.MakespanCycles || !reflect.DeepEqual(st.Utilization, snap.Utilization()) {
			t.Fatalf("%s: stats makespan %d utilization %v, snapshot %d %v",
				stage, st.MakespanCycles, st.Utilization, snap.MakespanCycles, snap.Utilization())
		}
	}
	check("empty")
	for i, m := range []string{"resnet50", "mobilenetv1", "brq-handpose", "mobilenetv2"} {
		if _, err := e.Submit(Request{Tenant: "a", Model: m, ArrivalCycle: int64(i) * 1000}); err != nil {
			t.Fatal(err)
		}
	}
	e.Admit()
	check("admitted")
	if n := e.Preempt(1, 2); n == 0 {
		t.Fatal("nothing preempted")
	}
	check("preempted")
	if err := e.Reassign([]accel.Partition{
		{Style: dataflow.NVDLA, PEs: 768, BWGBps: 12},
		{Style: dataflow.ShiDiannao, PEs: 256, BWGBps: 4},
	}); err != nil {
		t.Fatal(err)
	}
	check("reassigned")
	e.Admit() // resumes the preempted requests
	check("resumed")
	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Resumes == 0 || st.Submitted != st.Completed {
		t.Fatalf("preempted work not resumed: %+v", st)
	}
}

// TestReassignRefreshesFeasibility: the submit-time feasibility memo
// belongs to the HDA it was computed on. A model rejected on the
// starting HDA (its layer can never fit the global buffer there) is
// accepted by the first Submit after a Reassign onto slices where it
// fits, so the memo never serves the old HDA's answer.
func TestReassignRefreshesFeasibility(t *testing.T) {
	// One NVDLA sub whose L1 exceeds the 4 KiB global buffer, so the
	// giant layer's L1-capped occupancy cannot fit; accel.New, which
	// Reassign rebuilds the sub through, caps L1 at a quarter of the
	// buffer.
	h := &accel.HDA{
		Name:  "tiny-buf",
		Class: accel.Class{Name: "tiny-buf", PEs: 512, BWGBps: 8, GlobalBufBytes: 4096},
		Subs: []accel.SubAccelerator{{
			Name:  "acc1-NVDLA",
			Style: dataflow.NVDLA,
			HW:    maestro.HW{PEs: 512, BWGBps: 8, L2Bytes: 1 << 20, L1Bytes: 1 << 20},
		}},
	}
	opts := DefaultOptions()
	opts.Manual = true
	e, err := New(newTestCache(), h, opts)
	if err != nil {
		t.Fatal(err)
	}
	giant := &dnn.Model{Name: "giant", Layers: []dnn.Layer{{
		Op: dnn.Conv2D, K: 512, C: 512, Y: 512, X: 512, R: 3, S: 3, Stride: 1, Pad: 1,
	}}}
	req := Request{Tenant: "a", ArrivalCycle: 0}
	const want = "serve: giant layer 0 cannot fit the 4096-byte global buffer on any sub-accelerator"
	for i := 0; i < 2; i++ { // the second answer comes from the memo
		if _, err := e.SubmitModel(req, giant, nil); err == nil || err.Error() != want {
			t.Fatalf("submit %d on the tight HDA: got %v, want %q", i, err, want)
		}
	}
	if err := e.Reassign([]accel.Partition{{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8}}); err != nil {
		t.Fatal(err)
	}
	tk, err := e.SubmitModel(req, giant, nil)
	if err != nil {
		t.Fatalf("submit after the reassign still rejected: %v", err)
	}
	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// SubmitModel admits untracked segments, so the served request
	// shows on its ticket rather than in the tenant counters.
	if rec, _ := tk.Wait(context.Background()); rec.Status != StatusDone || st.Rejected != 2 {
		t.Fatalf("want the request done and 2 rejected, got %+v and %+v", rec, st)
	}
}
