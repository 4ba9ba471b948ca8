package sched

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/workload"
)

// spacedIncremental admits n mobilenetv1 instances one Extend each,
// 20M cycles apart (each finishes long before the next arrives), then
// one resnet50 at the next slot, and returns the schedule with the
// resnet50's placement.
func spacedIncremental(t *testing.T, n int) (*Incremental, Placement) {
	t.Helper()
	inc, err := incTestScheduler(t).Incremental(incTestHDA(t), "spaced")
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, "mobilenetv1")
	for i := 0; i < n; i++ {
		if _, err := inc.Extend([]Admission{{Instance: workload.Instance{Model: m, Batch: i + 1, ArrivalCycle: int64(i) * 20_000_000}}}); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := inc.Extend([]Admission{{Instance: workload.Instance{Model: mustModel(t, "resnet50"), Batch: n + 1, ArrivalCycle: int64(n) * 20_000_000}}})
	if err != nil {
		t.Fatal(err)
	}
	return inc, ps[0]
}

// TestPreemptRetiredInstance: an instance below the live window
// finished before the admission floor, so preempting it reports
// ErrNothingToPreempt — what a finished instance always reported —
// never an unknown instance.
func TestPreemptRetiredInstance(t *testing.T) {
	inc, _ := spacedIncremental(t, 40)
	for _, inst := range []int{0, 17, 39} {
		if _, err := inc.Preempt(inst, inc.Floor()); !errors.Is(err, ErrNothingToPreempt) {
			t.Errorf("Preempt(%d) = %v, want ErrNothingToPreempt", inst, err)
		}
	}
	if _, err := inc.Preempt(41, inc.Floor()); err == nil || errors.Is(err, ErrNothingToPreempt) {
		t.Errorf("Preempt past the last instance = %v, want an unknown-instance error", err)
	}
}

// TestPreemptRewindsToRetiredFrontier rolls back the whole of the only
// live instance: every sub's free cycle must rewind to the end of the
// latest retired layer there — the values captured before retirement
// existed, when that work was still in the assignment list — and the
// resumed placement must land where it did then.
func TestPreemptRewindsToRetiredFrontier(t *testing.T) {
	inc, pl := spacedIncremental(t, 40)
	if snap := inc.Snapshot(); snap.Retired.Instances != 40 || snap.Workload.NumInstances() != 1 {
		t.Fatalf("window holds %d instances behind %d retired, want 1 behind 40",
			snap.Workload.NumInstances(), snap.Retired.Instances)
	}
	cp, err := inc.Preempt(pl.Instance, pl.ArrivalCycle)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NextLayer != 0 {
		t.Fatalf("checkpoint %+v, want the whole instance rolled back", cp)
	}
	wantFree := []int64{783246637, 782709296}
	if !slices.Equal(inc.st.free, wantFree) {
		t.Errorf("free after rollback = %v, want %v", inc.st.free, wantFree)
	}
	got, err := inc.Resume(cp, 0, inc.Floor())
	if err != nil {
		t.Fatal(err)
	}
	if want := (Placement{Instance: 40, ArrivalCycle: 800_000_000, StartCycle: 800_000_000, FinishCycle: 813_386_965,
		BusyCycles: 13_386_965, EnergyPJ: 6.565830078079998e+09}); got != want {
		t.Errorf("resumed placement %+v, want %+v", got, want)
	}
	if err := inc.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRetireKeepsContinuedPredecessor: an instance admitted with
// Continues stays in the window, however far the floor moves past it,
// until its successor names it in a later Extend; naming an instance
// that retired without the mark is an error, and EndChain lets a
// marked instance whose successor never comes retire.
func TestRetireKeepsContinuedPredecessor(t *testing.T) {
	inc, err := incTestScheduler(t).Incremental(incTestHDA(t), "chain")
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, "brq-handpose")
	at := func(i int) workload.Instance {
		return workload.Instance{Model: m, Batch: i + 1, ArrivalCycle: int64(i) * 20_000_000}
	}
	head, err := inc.Extend([]Admission{{Instance: at(0), Continues: true}, {Instance: at(0)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if _, err := inc.Extend([]Admission{{Instance: at(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if r := inc.Snapshot().Retired.Instances; r != 0 {
		t.Fatalf("%d instances retired past a Continues instance at index 0", r)
	}
	if _, err := inc.Extend([]Admission{{Instance: at(9), After: head[0].Instance + 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Extend([]Admission{{Instance: at(10), Continues: true}}); err != nil {
		t.Fatal(err)
	}
	// The successor (index 10) linked, so everything but the new mark
	// (index 11) retires.
	snap := inc.Snapshot()
	if snap.Retired.Instances != 11 || snap.Workload.NumInstances() != 1 {
		t.Fatalf("%d retired + %d live after the successor linked, want 11 + 1",
			snap.Retired.Instances, snap.Workload.NumInstances())
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Extend([]Admission{{Instance: at(11), After: head[1].Instance + 1}}); err == nil {
		t.Fatal("After named a retired instance")
	}

	// Instance 11 keeps its mark while later work piles up behind it;
	// EndChain releases it.
	for i := 11; i <= 14; i++ {
		if _, err := inc.Extend([]Admission{{Instance: at(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if r := inc.Snapshot().Retired.Instances; r != 11 {
		t.Fatalf("%d retired with instance 11 still marked, want 11", r)
	}
	inc.EndChain(11)
	if _, err := inc.Extend([]Admission{{Instance: at(15)}}); err != nil {
		t.Fatal(err)
	}
	if snap := inc.Snapshot(); snap.Retired.Instances != 16 || snap.Workload.NumInstances() != 1 {
		t.Fatalf("%d retired + %d live after EndChain, want 16 + 1", snap.Retired.Instances, snap.Workload.NumInstances())
	}
}

// TestRetiredTotalsConsistent: after retirement the snapshot's
// aggregates still equal what the whole history adds up to, and
// Validate catches retired totals that disagree with them.
func TestRetiredTotalsConsistent(t *testing.T) {
	inc, _ := spacedIncremental(t, 40)
	snap := inc.Snapshot()
	r := snap.Retired
	if r.Instances != 40 || r.Assignments != 40*mustModel(t, "mobilenetv1").NumLayers() {
		t.Fatalf("retired %+v, want 40 mobilenetv1 instances", r)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if snap.MakespanCycles != inc.MakespanCycles() || !slices.Equal(snap.SubBusyCycles, inc.SubBusyCycles()) {
		t.Fatalf("snapshot makespan %d busy %v, incremental %d %v",
			snap.MakespanCycles, snap.SubBusyCycles, inc.MakespanCycles(), inc.SubBusyCycles())
	}
	bad := *snap
	bad.Retired = r.clone()
	bad.Retired.BusyCycles[0]++
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted retired busy cycles off by one")
	}
	bad.Retired = r.clone()
	bad.Retired.EnergyPJ += 10
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted retired energy off by 10 pJ")
	}
}
