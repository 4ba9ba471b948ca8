package sched

import (
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/maestro"
	"repro/internal/workload"
)

func incTestHDA(t testing.TB) *accel.HDA {
	t.Helper()
	h, err := accel.New("inc-test", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func incTestScheduler(t testing.TB) *Scheduler {
	t.Helper()
	opts := DefaultOptions()
	opts.PostProcess = false // incremental commits are non-revocable
	return MustNew(maestro.NewCache(energy.Default28nm()), opts)
}

func mustModel(t testing.TB, name string) *dnn.Model {
	t.Helper()
	m, err := dnn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tinyBufHDA is a hand-built one-sub HDA whose sub-accelerator L1
// exceeds the shared 4 KiB global buffer: big layers pin an occupancy
// slice (capped at L1) that can never fit, which is the only way the
// assignment loop can dead-end. accel.New never produces this shape.
func tinyBufHDA(name string) *accel.HDA {
	return &accel.HDA{
		Name:  name,
		Class: accel.Class{Name: "tiny-buf", PEs: 512, BWGBps: 8, GlobalBufBytes: 4096},
		Subs: []accel.SubAccelerator{{
			Name:  "acc1-NVDLA",
			Style: dataflow.NVDLA,
			HW:    maestro.HW{PEs: 512, BWGBps: 8, L2Bytes: 1 << 20, L1Bytes: 1 << 20},
		}},
	}
}

// tinyModel's one layer fits tinyBufHDA's buffer.
func tinyModel() *dnn.Model {
	return &dnn.Model{Name: "tiny", Layers: []dnn.Layer{{
		Op: dnn.Conv2D, K: 1, C: 1, Y: 4, X: 4, R: 1, S: 1, Stride: 1, Pad: 0,
	}}}
}

// giantModel's one layer (occupancy L1-capped at 1 MiB) never fits
// tinyBufHDA's buffer.
func giantModel() *dnn.Model {
	return &dnn.Model{Name: "giant", Layers: []dnn.Layer{{
		Op: dnn.Conv2D, K: 512, C: 512, Y: 512, X: 512, R: 3, S: 3, Stride: 1, Pad: 1,
	}}}
}

// backlogIncremental returns an incremental schedule holding n
// committed instances of m, all arriving at cycle 0: the admission
// floor never moves, so every one of their layers stays live in the
// memory ledger.
func backlogIncremental(tb testing.TB, s *Scheduler, h *accel.HDA, m *dnn.Model, n int) *Incremental {
	tb.Helper()
	inc, err := s.Incremental(h, "backlog")
	if err != nil {
		tb.Fatal(err)
	}
	const chunk = 50
	for base := 0; base < n; base += chunk {
		adms := make([]Admission, min(chunk, n-base))
		for i := range adms {
			adms[i] = Admission{Instance: workload.Instance{Model: m, Batch: base + i + 1}}
		}
		if _, err := inc.Extend(adms); err != nil {
			tb.Fatal(err)
		}
	}
	return inc
}

// BenchmarkIncrementalExtend measures one single-request Extend on top
// of a committed backlog (see backlogIncremental). The backlog is
// rebuilt, off the clock, whenever the timed admissions have doubled
// it, so each size is measured between n and 2n committed instances.
// ns/op and B/op should not grow with the backlog: the rollback point
// an Extend takes costs O(batch), not O(committed ledger).
func BenchmarkIncrementalExtend(b *testing.B) {
	h := incTestHDA(b)
	s := incTestScheduler(b)
	m := mustModel(b, "brq-handpose")
	for _, n := range []int{50, 500, 2000} {
		b.Run(fmt.Sprintf("backlog=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			inc := backlogIncremental(b, s, h, m, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if inc.NumInstances() >= 2*n {
					b.StopTimer()
					inc = backlogIncremental(b, s, h, m, n)
					b.StartTimer()
				}
				adm := []Admission{{Instance: workload.Instance{Model: m, Batch: inc.NumInstances() + 1}}}
				if _, err := inc.Extend(adm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestIncrementalMatchesBatch: admitting the whole workload in one
// Extend at cycle 0 must reproduce the batch scheduler's assignments
// exactly (both run the Fig. 8 loop; post-processing disabled).
func TestIncrementalMatchesBatch(t *testing.T) {
	h := incTestHDA(t)
	s := incTestScheduler(t)
	w := workload.MustNew("inc-batch", []workload.Entry{
		{Model: "mobilenetv1", Batches: 2},
		{Model: "brq-handpose", Batches: 2},
	})

	batch, err := s.Schedule(h, w)
	if err != nil {
		t.Fatal(err)
	}

	inc, err := s.Incremental(h, "inc-batch")
	if err != nil {
		t.Fatal(err)
	}
	adms := make([]Admission, len(w.Instances))
	for i, in := range w.Instances {
		adms[i] = Admission{Instance: in}
	}
	if _, err := inc.Extend(adms); err != nil {
		t.Fatal(err)
	}
	snap := inc.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(snap.Assignments) != len(batch.Assignments) {
		t.Fatalf("incremental committed %d assignments, batch %d", len(snap.Assignments), len(batch.Assignments))
	}
	for i := range snap.Assignments {
		a, b := snap.Assignments[i], batch.Assignments[i]
		a.Cost, b.Cost = nil, nil
		if a != b {
			t.Fatalf("assignment %d differs: incremental %+v vs batch %+v", i, snap.Assignments[i], batch.Assignments[i])
		}
	}
	if snap.MakespanCycles != batch.MakespanCycles {
		t.Errorf("makespan %d != batch %d", snap.MakespanCycles, batch.MakespanCycles)
	}
}

// TestIncrementalStepwise: admissions arriving over time extend the
// schedule; every intermediate snapshot is a valid schedule, and
// placements report consistent per-request latencies.
func TestIncrementalStepwise(t *testing.T) {
	h := incTestHDA(t)
	s := incTestScheduler(t)
	inc, err := s.Incremental(h, "inc-step")
	if err != nil {
		t.Fatal(err)
	}
	mobilenet := mustModel(t, "mobilenetv1")
	handpose := mustModel(t, "brq-handpose")

	var arrival int64
	total := 0
	for round := 0; round < 4; round++ {
		adms := []Admission{
			{Instance: workload.Instance{Model: mobilenet, Batch: round + 1, ArrivalCycle: arrival}},
			{Instance: workload.Instance{Model: handpose, Batch: round + 1, ArrivalCycle: arrival + 1000}, Priority: 1},
		}
		ps, err := inc.Extend(adms)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(ps) != len(adms) {
			t.Fatalf("round %d: %d placements for %d admissions", round, len(ps), len(adms))
		}
		for i, p := range ps {
			if p.StartCycle < adms[i].Instance.ArrivalCycle {
				t.Errorf("round %d: placement %d starts %d before arrival %d", round, i, p.StartCycle, adms[i].Instance.ArrivalCycle)
			}
			if p.FinishCycle <= p.StartCycle {
				t.Errorf("round %d: placement %d empty interval [%d,%d)", round, i, p.StartCycle, p.FinishCycle)
			}
			if p.LatencyCycles() < p.BusyCycles {
				t.Errorf("round %d: latency %d below busy cycles %d", round, p.LatencyCycles(), p.BusyCycles)
			}
			if p.QueueCycles() < 0 {
				t.Errorf("round %d: negative queueing %d", round, p.QueueCycles())
			}
		}
		total += len(adms)
		if inc.NumInstances() != total {
			t.Fatalf("round %d: %d instances, want %d", round, inc.NumInstances(), total)
		}
		snap := inc.Snapshot()
		if err := snap.Validate(); err != nil {
			t.Fatalf("round %d: invalid snapshot: %v", round, err)
		}
		// Later arrivals keep the clock moving (requests trickle in
		// while earlier ones execute).
		arrival += 2_000_000
	}
}

// TestIncrementalMemoryLedger: a later batch arriving before the
// previous batch's completion must still respect the shared-buffer
// constraint — the ledger must not have pruned slots that overlap it.
func TestIncrementalMemoryLedger(t *testing.T) {
	h := incTestHDA(t)
	s := incTestScheduler(t)
	inc, err := s.Incremental(h, "inc-mem")
	if err != nil {
		t.Fatal(err)
	}
	unet := mustModel(t, "unet")
	adms := []Admission{{Instance: workload.Instance{Model: unet, Batch: 1}}}
	if _, err := inc.Extend(adms); err != nil {
		t.Fatal(err)
	}
	first := inc.Snapshot().MakespanCycles
	// Admit three more UNets midway through the first one's execution.
	mid := first / 2
	var more []Admission
	for b := 2; b <= 4; b++ {
		more = append(more, Admission{Instance: workload.Instance{Model: unet, Batch: b, ArrivalCycle: mid}})
	}
	if _, err := inc.Extend(more); err != nil {
		t.Fatal(err)
	}
	snap := inc.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatalf("post-overlap snapshot invalid: %v", err)
	}
	if snap.PeakOccupancyBytes() > h.Class.GlobalBufBytes {
		t.Fatalf("peak occupancy %d exceeds buffer %d", snap.PeakOccupancyBytes(), h.Class.GlobalBufBytes)
	}
}

// TestIncrementalPriority: within one admission batch, a
// higher-priority instance is served first when both are ready.
func TestIncrementalPriority(t *testing.T) {
	h := incTestHDA(t)
	s := incTestScheduler(t)
	inc, err := s.Incremental(h, "inc-prio")
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, "mobilenetv1")
	ps, err := inc.Extend([]Admission{
		{Instance: workload.Instance{Model: m, Batch: 1}, Priority: 0},
		{Instance: workload.Instance{Model: m, Batch: 2}, Priority: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ps[1].StartCycle > ps[0].StartCycle {
		t.Errorf("high-priority instance starts at %d, after low-priority %d", ps[1].StartCycle, ps[0].StartCycle)
	}
	if ps[1].FinishCycle > ps[0].FinishCycle {
		t.Errorf("high-priority instance finishes at %d, after low-priority %d", ps[1].FinishCycle, ps[0].FinishCycle)
	}
}

// TestIncrementalFloor: arrivals before the admission floor are
// rejected, and the floor ratchets up with admitted batches.
func TestIncrementalFloor(t *testing.T) {
	h := incTestHDA(t)
	s := incTestScheduler(t)
	inc, err := s.Incremental(h, "inc-floor")
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, "brq-handpose")
	if _, err := inc.Extend([]Admission{
		{Instance: workload.Instance{Model: m, Batch: 1, ArrivalCycle: 5000}},
	}); err != nil {
		t.Fatal(err)
	}
	if inc.Floor() != 5000 {
		t.Errorf("floor = %d, want 5000", inc.Floor())
	}
	if _, err := inc.Extend([]Admission{
		{Instance: workload.Instance{Model: m, Batch: 2, ArrivalCycle: 4999}},
	}); err == nil {
		t.Error("arrival below the admission floor accepted")
	}
}

// TestIncrementalExtendRollback: a failed Extend (a layer that can
// never fit the global buffer deadlocks the assignment loop) must
// leave the incremental schedule exactly as it was — a later, valid
// Extend succeeds (regression: a failed admission used to leave
// partial state that poisoned every subsequent Extend).
func TestIncrementalExtendRollback(t *testing.T) {
	s := incTestScheduler(t)
	inc, err := s.Incremental(tinyBufHDA("rollback"), "inc-rollback")
	if err != nil {
		t.Fatal(err)
	}
	// Seed with a tiny model so there is committed state to protect.
	m := tinyModel()
	if _, err := inc.Extend([]Admission{{Instance: workload.Instance{Model: m, Batch: 1}}}); err != nil {
		t.Fatal(err)
	}
	before := inc.Snapshot()
	floorBefore := inc.Floor()

	if _, err := inc.Extend([]Admission{{Instance: workload.Instance{Model: giantModel(), Batch: 1}}}); err == nil {
		t.Fatal("un-schedulable model admitted")
	}
	if inc.NumInstances() != before.Workload.NumInstances() {
		t.Fatalf("failed Extend leaked instances: %d, want %d", inc.NumInstances(), before.Workload.NumInstances())
	}
	if inc.Floor() != floorBefore {
		t.Errorf("failed Extend moved the floor: %d -> %d", floorBefore, inc.Floor())
	}
	after := inc.Snapshot()
	if len(after.Assignments) != len(before.Assignments) || after.MakespanCycles != before.MakespanCycles {
		t.Fatalf("failed Extend changed committed state: %d/%d assignments, makespan %d/%d",
			len(after.Assignments), len(before.Assignments), after.MakespanCycles, before.MakespanCycles)
	}

	// The schedule must still accept and serve valid work.
	ps, err := inc.Extend([]Admission{{Instance: workload.Instance{Model: m, Batch: 2}}})
	if err != nil {
		t.Fatalf("valid Extend after rollback failed: %v", err)
	}
	if len(ps) != 1 || ps[0].FinishCycle <= ps[0].StartCycle {
		t.Fatalf("bad placement after rollback: %+v", ps)
	}
	if err := inc.Snapshot().Validate(); err != nil {
		t.Fatalf("snapshot invalid after rollback+extend: %v", err)
	}
}

// TestIncrementalRejectsOptionPriorities: the incremental path takes
// per-admission priorities only.
func TestIncrementalRejectsOptionPriorities(t *testing.T) {
	opts := DefaultOptions()
	opts.Priorities = []int{1, 2}
	s := MustNew(maestro.NewCache(energy.Default28nm()), opts)
	if _, err := s.Incremental(incTestHDA(t), "x"); err == nil {
		t.Error("Options.Priorities accepted by incremental path")
	}
}
