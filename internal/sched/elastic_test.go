package sched

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/workload"
)

// elasticInc builds an incremental schedule on the standard two-sub
// test HDA with one high-priority and one low-priority co-running
// instance, returning the schedule and the two placements.
func elasticInc(t *testing.T) (*Incremental, []Placement) {
	t.Helper()
	s := incTestScheduler(t)
	inc, err := s.Incremental(incTestHDA(t), "elastic")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := inc.Extend([]Admission{
		{Instance: workload.Instance{Model: mustModel(t, "brq-handpose"), Batch: 1}, Priority: 2},
		{Instance: workload.Instance{Model: mustModel(t, "mobilenetv1"), Batch: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inc, ps
}

// countLayers tallies (instance, layer) occurrences across the
// committed assignments.
func countLayers(sch *Schedule) map[[2]int]int {
	seen := make(map[[2]int]int)
	for _, a := range sch.Assignments {
		seen[[2]int{a.Instance, a.Layer}]++
	}
	return seen
}

// TestPreemptResume: preempting a low-priority instance at a
// mid-schedule layer boundary rolls back exactly the layer suffix
// starting at or after the boundary, refunds its busy cycles and
// energy, and a Resume re-schedules exactly those layers — the final
// schedule validates with every layer run exactly once.
func TestPreemptResume(t *testing.T) {
	inc, ps := elasticInc(t)
	vic := ps[1]
	nl := mustModel(t, "mobilenetv1").NumLayers()
	boundary := (vic.StartCycle + vic.FinishCycle) / 2

	cp, err := inc.Preempt(1, boundary)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Instance != 1 || cp.NextLayer <= 0 || cp.NextLayer >= nl {
		t.Fatalf("checkpoint should split the %d layers mid-way: %+v", nl, cp)
	}
	if cp.LayersRolledBack != nl-cp.NextLayer {
		t.Fatalf("rolled back %d layers, want %d", cp.LayersRolledBack, nl-cp.NextLayer)
	}
	if cp.FreedBusyCycles <= 0 || cp.FreedBusyCycles >= vic.BusyCycles {
		t.Fatalf("freed %d busy cycles, want in (0, %d)", cp.FreedBusyCycles, vic.BusyCycles)
	}
	if got := inc.Preempted(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Preempted() = %v, want [1]", got)
	}

	// The committed suffix is gone: no assignment of the victim starts
	// at or after the boundary, and the high-priority co-runner keeps
	// all of its layers.
	mid := inc.Snapshot()
	var vicKept, hiKept int
	for _, a := range mid.Assignments {
		switch a.Instance {
		case 1:
			vicKept++
			if a.Start >= boundary {
				t.Fatalf("assignment %d/%d@%d survived past the boundary %d", a.Instance, a.Layer, a.Start, boundary)
			}
		case 0:
			hiKept++
		}
	}
	if vicKept != cp.NextLayer {
		t.Fatalf("victim keeps %d committed layers, want the %d-layer prefix", vicKept, cp.NextLayer)
	}
	if hiKept != mustModel(t, "brq-handpose").NumLayers() {
		t.Fatalf("co-runner lost layers: %d kept", hiKept)
	}

	pl, err := inc.Resume(cp, 0, boundary)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Instance != 1 || pl.StartCycle < cp.ResumeCycle || pl.FinishCycle <= pl.StartCycle {
		t.Fatalf("bad resumed placement: %+v (resume cycle %d)", pl, cp.ResumeCycle)
	}
	// Same partition, same interned costs: the resumed suffix costs
	// exactly what the rollback freed.
	if pl.BusyCycles != cp.FreedBusyCycles {
		t.Fatalf("resumed busy %d != freed %d on an unchanged partition", pl.BusyCycles, cp.FreedBusyCycles)
	}
	if len(inc.Preempted()) != 0 {
		t.Fatalf("instance still suspended after Resume: %v", inc.Preempted())
	}

	final := inc.Snapshot()
	if err := final.Validate(); err != nil {
		t.Fatalf("schedule invalid after preempt+resume: %v", err)
	}
	for key, n := range countLayers(final) {
		if n != 1 {
			t.Fatalf("layer %v scheduled %d times", key, n)
		}
	}

	// A resumed instance is preemptible again.
	if _, err := inc.Preempt(1, (pl.StartCycle+pl.FinishCycle)/2); err != nil {
		t.Fatalf("re-preemption after resume failed: %v", err)
	}
}

// TestPreemptWholeInstance: a boundary at the victim's first layer
// start rolls back the entire instance — the checkpoint resumes from
// layer 0 at the original arrival.
func TestPreemptWholeInstance(t *testing.T) {
	inc, ps := elasticInc(t)
	cp, err := inc.Preempt(1, ps[1].StartCycle)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NextLayer != 0 || cp.ResumeCycle != ps[1].ArrivalCycle {
		t.Fatalf("whole-instance checkpoint %+v, want next layer 0 at arrival %d", cp, ps[1].ArrivalCycle)
	}
	if cp.FreedBusyCycles != ps[1].BusyCycles {
		t.Fatalf("freed %d busy cycles, want the full %d", cp.FreedBusyCycles, ps[1].BusyCycles)
	}
	if _, err := inc.Resume(cp, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := inc.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptErrors: unknown instances, boundaries past the finish,
// double preemption, stale resume tokens and fused-chain members are
// all rejected without touching the schedule.
func TestPreemptErrors(t *testing.T) {
	inc, ps := elasticInc(t)
	before := goldenFingerprint(inc.Snapshot())

	if _, err := inc.Preempt(99, 0); err == nil {
		t.Error("unknown instance preempted")
	}
	if _, err := inc.Preempt(1, ps[1].FinishCycle+1); !errors.Is(err, ErrNothingToPreempt) {
		t.Errorf("boundary past finish: got %v, want ErrNothingToPreempt", err)
	}
	if _, err := inc.Resume(Checkpoint{Instance: 1}, 0, 0); err == nil {
		t.Error("resume of a non-preempted instance accepted")
	}
	if got := goldenFingerprint(inc.Snapshot()); got != before {
		t.Fatalf("rejected preemptions mutated the schedule: %s -> %s", before, got)
	}

	cp, err := inc.Preempt(1, (ps[1].StartCycle+ps[1].FinishCycle)/2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Preempt(1, ps[1].StartCycle); err == nil {
		t.Error("double preemption accepted")
	}
	stale := cp
	stale.NextLayer++
	if _, err := inc.Resume(stale, 0, 0); err == nil {
		t.Error("stale checkpoint accepted")
	}
	if _, err := inc.Resume(cp, 0, 0); err != nil {
		t.Fatal(err)
	}

	// Fused-chain members are pinned by their handoff buffers.
	s := incTestScheduler(t)
	chain, err := s.Incremental(incTestHDA(t), "chain")
	if err != nil {
		t.Fatal(err)
	}
	tiny := &dnn.Model{Name: "tiny", Layers: []dnn.Layer{{
		Op: dnn.Conv2D, K: 1, C: 1, Y: 4, X: 4, R: 1, S: 1, Stride: 1, Pad: 0,
	}}}
	if _, err := chain.Extend([]Admission{
		{Instance: workload.Instance{Model: tiny, Batch: 1}},
		{Instance: workload.Instance{Model: tiny, Batch: 2}, After: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := chain.Preempt(0, 0); err == nil {
		t.Error("fused predecessor preempted")
	}
	if _, err := chain.Preempt(1, 0); err == nil {
		t.Error("fused successor preempted")
	}
}

// TestResumeOnReassignedSlice: preempt a co-running instance, re-size
// the sub-accelerator slices (Reassign), and resume — the suffix is
// re-costed on the new slice sizes while the committed prefix keeps
// its history, and the combined schedule stays valid.
func TestResumeOnReassignedSlice(t *testing.T) {
	inc, ps := elasticInc(t)
	cp, err := inc.Preempt(1, (ps[1].StartCycle+ps[1].FinishCycle)/2)
	if err != nil {
		t.Fatal(err)
	}

	nh, err := inc.Reassign([]accel.Partition{
		{Style: dataflow.NVDLA, PEs: 768, BWGBps: 12},
		{Style: dataflow.ShiDiannao, PEs: 256, BWGBps: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if nh.Subs[0].HW.PEs != 768 || nh.Subs[1].HW.PEs != 256 {
		t.Fatalf("reassigned HDA has wrong slices: %v", nh)
	}

	pl, err := inc.Resume(cp, 0, cp.ResumeCycle)
	if err != nil {
		t.Fatal(err)
	}
	// The suffix now runs on different slice sizes, so its cost must
	// differ from what the rollback freed (768/256 vs 512/512).
	if pl.BusyCycles == cp.FreedBusyCycles {
		t.Errorf("resumed busy %d identical to the pre-reassign cost; re-costing did not happen", pl.BusyCycles)
	}
	final := inc.Snapshot()
	if final.HDA != nh {
		t.Fatal("snapshot does not carry the reassigned HDA")
	}
	if err := final.Validate(); err != nil {
		t.Fatalf("schedule invalid after reassign+resume: %v", err)
	}

	// A fresh admission also lands on the new slices.
	if _, err := inc.Extend([]Admission{
		{Instance: workload.Instance{Model: mustModel(t, "mobilenetv1"), Batch: 2, ArrivalCycle: inc.Floor()}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReassignErrors: sub-count changes and Definition-1-violating
// partitions are rejected, and rejection leaves costs untouched.
func TestReassignErrors(t *testing.T) {
	inc, _ := elasticInc(t)
	if _, err := inc.Reassign([]accel.Partition{{Style: dataflow.NVDLA, PEs: 1024, BWGBps: 16}}); err == nil {
		t.Error("sub-count change accepted (that is a migration)")
	}
	if _, err := inc.Reassign([]accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 768, BWGBps: 8},
	}); err == nil {
		t.Error("partition violating the class PE sum accepted")
	}
	// The schedule still extends identically to a control that never
	// saw the rejected calls.
	ctl, _ := elasticInc(t)
	adm := []Admission{{Instance: workload.Instance{Model: mustModel(t, "mobilenetv1"), Batch: 2, ArrivalCycle: 0}}}
	got, err := inc.Extend(adm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctl.Extend(adm)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("rejected Reassign perturbed scheduling: %+v vs %+v", got[0], want[0])
	}
}

// TestReassignIdentityNoop: reassigning to the identical partition
// leaves every subsequent placement bit-identical to a control run.
func TestReassignIdentityNoop(t *testing.T) {
	inc, _ := elasticInc(t)
	ctl, _ := elasticInc(t)
	if _, err := inc.Reassign([]accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8},
	}); err != nil {
		t.Fatal(err)
	}
	adm := []Admission{{Instance: workload.Instance{Model: mustModel(t, "unet"), Batch: 1, ArrivalCycle: 500_000}}}
	got, err := inc.Extend(adm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctl.Extend(adm)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("identity reassign changed placement: %+v vs %+v", got[0], want[0])
	}
	if goldenFingerprint(inc.Snapshot()) != goldenFingerprint(ctl.Snapshot()) {
		t.Fatal("identity reassign changed the committed schedule")
	}
}

// TestElasticOffBitIdentity: with elasticity unused the incremental
// path must reproduce the committed golden fingerprint bit for bit —
// the elastic machinery may not perturb a schedule that never calls
// it. This re-runs TestGoldenIncremental's exact scenario and diffs
// the full schedule fingerprint (assignment intervals, makespan span
// and total energy) against the committed constant.
func TestElasticOffBitIdentity(t *testing.T) {
	h := maelstromEdge(t)
	s := MustNew(newCache(), DefaultOptions())
	inc, err := s.Incremental(h, "golden")
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Admission{
		{
			{Instance: workload.Instance{Model: mustModel(t, "brq-handpose"), Batch: 1}, Priority: 1},
			{Instance: workload.Instance{Model: mustModel(t, "mobilenetv1"), Batch: 1}},
		},
		{
			{Instance: workload.Instance{Model: mustModel(t, "unet"), Batch: 1, ArrivalCycle: 1_000_000}},
		},
		{
			{Instance: workload.Instance{Model: mustModel(t, "resnet50"), Batch: 1, ArrivalCycle: 2_000_000}, Priority: 2},
			{Instance: workload.Instance{Model: mustModel(t, "fl-depthnet"), Batch: 1, ArrivalCycle: 2_000_000}},
		},
	}
	for i, b := range batches {
		if _, err := inc.Extend(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	got := goldenFingerprint(inc.Snapshot())
	const want = "3804a91625d98c00|span=281869269|e=232863776071.920"
	if got != want {
		t.Errorf("elastic-off schedule drifted from the committed fingerprint:\n got %s\nwant %s", got, want)
	}
}

// TestExtendRollbackMidBatch: when a later admission of a batch is
// un-schedulable, the whole batch rolls back — including the earlier
// admissions' already-committed layers — and the schedule state is bit
// identical to before the call.
func TestExtendRollbackMidBatch(t *testing.T) {
	s := incTestScheduler(t)
	inc, err := s.Incremental(tinyBufHDA("rollback-mid"), "mid-batch")
	if err != nil {
		t.Fatal(err)
	}
	tiny, giant := tinyModel(), giantModel()
	if _, err := inc.Extend([]Admission{{Instance: workload.Instance{Model: tiny, Batch: 1}}}); err != nil {
		t.Fatal(err)
	}
	before := goldenFingerprint(inc.Snapshot())

	// The tiny leading admission is schedulable on its own; the giant
	// trailing one dead-ends the run, which must revert both.
	_, err = inc.Extend([]Admission{
		{Instance: workload.Instance{Model: tiny, Batch: 2}},
		{Instance: workload.Instance{Model: giant, Batch: 1}},
	})
	if err == nil {
		t.Fatal("un-schedulable batch admitted")
	}
	if inc.NumInstances() != 1 {
		t.Fatalf("mid-batch rollback leaked instances: %d, want 1", inc.NumInstances())
	}
	if got := goldenFingerprint(inc.Snapshot()); got != before {
		t.Fatalf("mid-batch rollback left committed state dirty:\n got %s\nwant %s", got, before)
	}
	// The schedulable half still admits cleanly afterwards.
	if _, err := inc.Extend([]Admission{{Instance: workload.Instance{Model: tiny, Batch: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestExtendRollbackPostCommit: a failing Extend after several
// committed batches leaves the schedule extending exactly like a
// control that never saw the failure (timelines, ledger and floor all
// rewound, not just the assignment list).
func TestExtendRollbackPostCommit(t *testing.T) {
	h := tinyBufHDA("rollback-post")
	tiny, giant := tinyModel(), giantModel()
	s := incTestScheduler(t)
	inc, err := s.Incremental(h, "post-commit")
	if err != nil {
		t.Fatal(err)
	}
	sc := incTestScheduler(t)
	ctl, err := sc.Incremental(h, "post-commit")
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= 3; b++ {
		adm := []Admission{{Instance: workload.Instance{Model: tiny, Batch: b, ArrivalCycle: int64(b) * 10}}}
		if _, err := inc.Extend(adm); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Extend(adm); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inc.Extend([]Admission{{Instance: workload.Instance{Model: giant, Batch: 1, ArrivalCycle: 40}}}); err == nil {
		t.Fatal("un-schedulable admission accepted")
	}
	adm := []Admission{{Instance: workload.Instance{Model: tiny, Batch: 4, ArrivalCycle: 50}}}
	got, err := inc.Extend(adm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctl.Extend(adm)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("post-rollback placement diverged from control: %+v vs %+v", got[0], want[0])
	}
	if goldenFingerprint(inc.Snapshot()) != goldenFingerprint(ctl.Snapshot()) {
		t.Fatal("post-rollback schedule diverged from control")
	}
}

// TestExtendRollbackOpenHandoff: a failing Extend whose admissions
// created fused links and opened handoff buffers reverts both — the
// predecessor's successor slot frees up and the handoff leaves the
// ledger — so a valid successor can still attach afterwards.
func TestExtendRollbackOpenHandoff(t *testing.T) {
	s := incTestScheduler(t)
	inc, err := s.Incremental(tinyBufHDA("rollback-handoff"), "handoff-rollback")
	if err != nil {
		t.Fatal(err)
	}
	tiny, giant := tinyModel(), giantModel()
	if _, err := inc.Extend([]Admission{{Instance: workload.Instance{Model: tiny, Batch: 1}}}); err != nil {
		t.Fatal(err)
	}
	before := goldenFingerprint(inc.Snapshot())

	// The batch links a successor to the committed predecessor (the
	// completed predecessor opens its handoff buffer immediately at
	// link time) and then dead-ends on the giant member: both the link
	// and the open handoff must roll back.
	_, err = inc.Extend([]Admission{
		{Instance: workload.Instance{Model: tiny, Batch: 2}, After: 1},
		{Instance: workload.Instance{Model: giant, Batch: 1}},
	})
	if err == nil {
		t.Fatal("un-schedulable batch admitted")
	}
	if got := goldenFingerprint(inc.Snapshot()); got != before {
		t.Fatalf("handoff rollback left committed state dirty:\n got %s\nwant %s", got, before)
	}
	// The predecessor's successor slot must be free again: attaching a
	// new successor succeeds (a leaked link would reject it).
	if _, err := inc.Extend([]Admission{
		{Instance: workload.Instance{Model: tiny, Batch: 3}, After: 1},
	}); err != nil {
		t.Fatalf("successor slot leaked by the failed batch: %v", err)
	}
	if err := inc.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestExtendRollbackAcrossCompaction: a failed Extend whose run prunes
// past the compaction threshold (≥64 dead slots dominating the sub)
// leaves the ledger's slots, prefix sums and head exactly as they were
// — a rollback mark holds compaction off until a successful run
// releases it — and the next successful Extend places what a control
// that never failed places.
func TestExtendRollbackAcrossCompaction(t *testing.T) {
	h := tinyBufHDA("rollback-compaction")
	tiny := tinyModel()
	var end int64
	build := func() *Incremental {
		inc, err := incTestScheduler(t).Incremental(h, "compaction")
		if err != nil {
			t.Fatal(err)
		}
		// 100 serial one-layer instances, then one arriving after all of
		// them finished: that admission moves the floor, so the next
		// Extend's prune floor lies past the first 100 slots.
		adms := make([]Admission, 100)
		for i := range adms {
			adms[i] = Admission{Instance: workload.Instance{Model: tiny, Batch: i + 1}}
		}
		ps, err := inc.Extend(adms)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			end = max(end, p.FinishCycle)
		}
		if _, err := inc.Extend([]Admission{{Instance: workload.Instance{Model: tiny, Batch: 101, ArrivalCycle: end}}}); err != nil {
			t.Fatal(err)
		}
		return inc
	}
	inc, ctl := build(), build()

	lg := &inc.st.ledger
	slots, pre, head := slices.Clone(lg.slots[0]), slices.Clone(lg.pre[0]), lg.head[0]
	dead := 0
	for _, sl := range slots {
		if sl.end <= inc.Floor() {
			dead++
		}
	}
	if dead < 64 || 2*dead < len(slots) || head != 0 {
		t.Fatalf("setup: %d of %d slots dead behind the floor (head %d); the failing run must cross the compaction threshold",
			dead, len(slots), head)
	}

	if _, err := inc.Extend([]Admission{
		{Instance: workload.Instance{Model: tiny, Batch: 102, ArrivalCycle: end}},
		{Instance: workload.Instance{Model: giantModel(), Batch: 1, ArrivalCycle: end}},
	}); err == nil {
		t.Fatal("un-schedulable batch admitted")
	}
	if !slices.Equal(lg.slots[0], slots) || !slices.Equal(lg.pre[0], pre) || lg.head[0] != head {
		t.Fatalf("failed Extend changed the ledger: %d slots head %d, want %d slots head %d",
			len(lg.slots[0]), lg.head[0], len(slots), head)
	}

	adm := []Admission{{Instance: workload.Instance{Model: tiny, Batch: 102, ArrivalCycle: end}}}
	got, err := inc.Extend(adm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctl.Extend(adm)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("post-rollback placement diverged from control: %+v vs %+v", got[0], want[0])
	}
	if goldenFingerprint(inc.Snapshot()) != goldenFingerprint(ctl.Snapshot()) {
		t.Fatal("post-rollback schedule diverged from control")
	}
}

// TestFailedResumeRewindsInstance: a Resume that dead-ends must leave
// the instance exactly as Preempt left it — next layer, ready cycle and
// priority included — so resuming the same checkpoint again places
// exactly what a control that never failed places. The failure is
// forced by a copy of the HDA whose global buffer is too small for a
// later layer of the suffix: the run places the suffix's first layer
// (advancing the instance) before it dead-ends.
func TestFailedResumeRewindsInstance(t *testing.T) {
	preempted := func() (*Incremental, Checkpoint) {
		inc, ps := elasticInc(t)
		cp, err := inc.Preempt(1, (ps[1].StartCycle+ps[1].FinishCycle)/2)
		if err != nil {
			t.Fatal(err)
		}
		return inc, cp
	}
	inc, cp := preempted()
	ctl, ctlCP := preempted()

	row := inc.st.rows[cp.Instance]
	minOcc := func(li int) int64 {
		m := row.cols[0][li].OccupancyBytes
		for a := range row.cols {
			m = min(m, row.cols[a][li].OccupancyBytes)
		}
		return m
	}
	worst := cp.NextLayer
	for li := cp.NextLayer + 1; li < len(row.cols[0]); li++ {
		if minOcc(li) > minOcc(worst) {
			worst = li
		}
	}
	if worst == cp.NextLayer {
		t.Fatalf("no layer after %d needs more buffer than it does", cp.NextLayer)
	}
	full := inc.h
	tight := *full
	tight.Class.GlobalBufBytes = minOcc(worst) - 1
	inc.h = &tight
	_, err := inc.Resume(cp, 5, cp.ResumeCycle+1)
	inc.h = full
	if err == nil {
		t.Fatal("resume on the shrunken buffer succeeded")
	}
	if got := inc.Preempted(); len(got) != 1 || got[0] != cp.Instance {
		t.Fatalf("Preempted() = %v after a failed resume, want [%d]", got, cp.Instance)
	}
	i := cp.Instance
	if st := inc.st; st.nextLayer[i] != cp.NextLayer || st.ready[i] != cp.ResumeCycle || st.prio[i] != ctl.st.prio[i] {
		t.Fatalf("failed resume left next layer %d, ready %d, priority %d; want %d, %d, %d",
			st.nextLayer[i], st.ready[i], st.prio[i], cp.NextLayer, cp.ResumeCycle, ctl.st.prio[i])
	}

	got, err := inc.Resume(cp, 0, cp.ResumeCycle)
	if err != nil {
		t.Fatalf("retry of the checkpoint failed: %v", err)
	}
	want, err := ctl.Resume(ctlCP, 0, ctlCP.ResumeCycle)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resume after a failed attempt diverged from control: %+v vs %+v", got, want)
	}
	if goldenFingerprint(inc.Snapshot()) != goldenFingerprint(ctl.Snapshot()) {
		t.Fatal("schedule after a failed resume diverged from control")
	}
}

// TestPreemptConservationSeeded is the scheduler half of the
// preemption conservation property: across seeded random
// preempt/resume points on a multi-tenant stream, every admitted layer
// ends up scheduled exactly once, the schedule validates (dependence,
// serialization, the memory ledger's occupancy bound), and the per-sub
// busy/energy aggregates stay consistent with the assignments.
func TestPreemptConservationSeeded(t *testing.T) {
	models := []*dnn.Model{mustModel(t, "mobilenetv1"), mustModel(t, "brq-handpose")}
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		s := incTestScheduler(t)
		inc, err := s.Incremental(incTestHDA(t), "conserve")
		if err != nil {
			t.Fatal(err)
		}
		type token struct {
			cp   Checkpoint
			prio int
		}
		var suspended []token
		placed := make(map[int]Placement)
		arrival := int64(0)
		for i := 0; i < 14; i++ {
			arrival += int64(rng.Intn(2_000_000))
			prio := rng.Intn(3)
			ps, err := inc.Extend([]Admission{{
				Instance: workload.Instance{Model: models[rng.Intn(len(models))], Batch: i + 1, ArrivalCycle: arrival},
				Priority: prio,
			}})
			if err != nil {
				t.Fatalf("seed %d extend %d: %v", seed, i, err)
			}
			placed[ps[0].Instance] = ps[0]

			// Sometimes preempt a random live instance at a random
			// point of its span; sometimes resume a suspended one.
			if rng.Intn(2) == 0 {
				victim := rng.Intn(inc.NumInstances())
				pl, live := placed[victim]
				if live {
					at := pl.StartCycle + rng.Int63n(max(1, pl.FinishCycle-pl.StartCycle))
					cp, err := inc.Preempt(victim, at)
					switch {
					case err == nil:
						suspended = append(suspended, token{cp, rng.Intn(3)})
						delete(placed, victim)
					case errors.Is(err, ErrNothingToPreempt):
						// finished before the boundary; fine
					default:
						t.Fatalf("seed %d preempt %d@%d: %v", seed, victim, at, err)
					}
				}
			}
			if len(suspended) > 0 && rng.Intn(3) == 0 {
				tk := suspended[0]
				suspended = suspended[1:]
				pl, err := inc.Resume(tk.cp, tk.prio, inc.Floor())
				if err != nil {
					t.Fatalf("seed %d resume %d: %v", seed, tk.cp.Instance, err)
				}
				placed[pl.Instance] = pl
			}
		}
		for _, tk := range suspended {
			if _, err := inc.Resume(tk.cp, tk.prio, inc.Floor()); err != nil {
				t.Fatalf("seed %d final resume %d: %v", seed, tk.cp.Instance, err)
			}
		}
		final := inc.Snapshot()
		if err := final.Validate(); err != nil {
			t.Fatalf("seed %d: final schedule invalid: %v", seed, err)
		}
		for key, n := range countLayers(final) {
			if n != 1 {
				t.Fatalf("seed %d: layer %v scheduled %d times", seed, key, n)
			}
		}
	}
}
